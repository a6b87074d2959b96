package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

const expoBefore = `# HELP beerd_dedupe_hits_total Submissions attached to an executing job.
# TYPE beerd_dedupe_hits_total counter
beerd_dedupe_hits_total 3
# HELP beerd_store_op_seconds Store op latency.
# TYPE beerd_store_op_seconds histogram
beerd_store_op_seconds_bucket{op="get",le="0.001"} 4
beerd_store_op_seconds_bucket{op="get",le="+Inf"} 5
beerd_store_op_seconds_sum{op="get"} 0.004
beerd_store_op_seconds_count{op="get"} 5
`

const expoAfter = `# HELP beerd_dedupe_hits_total Submissions attached to an executing job.
# TYPE beerd_dedupe_hits_total counter
beerd_dedupe_hits_total 10
# HELP beerd_store_op_seconds Store op latency.
# TYPE beerd_store_op_seconds histogram
beerd_store_op_seconds_bucket{op="get",le="0.001"} 9
beerd_store_op_seconds_bucket{op="get",le="+Inf"} 10
beerd_store_op_seconds_sum{op="get"} 0.009
beerd_store_op_seconds_count{op="get"} 10
beerd_store_op_seconds_bucket{op="put",le="0.001"} 1
beerd_store_op_seconds_bucket{op="put",le="+Inf"} 2
beerd_store_op_seconds_sum{op="put"} 0.002
beerd_store_op_seconds_count{op="put"} 2
`

func TestMetricsDeltas(t *testing.T) {
	before, err := obs.ParseExposition(expoBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := obs.ParseExposition(expoAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "beerd_dedupe_hits_total", "beerd_dedupe_hits_total"); got != 7 {
		t.Errorf("dedupe hits delta = %v, want 7", got)
	}
	n := delta(before, after, "beerd_store_op_seconds", "beerd_store_op_seconds_count")
	sum := delta(before, after, "beerd_store_op_seconds", "beerd_store_op_seconds_sum")
	if n != 7 || 1e3*sum/n < 0.999 || 1e3*sum/n > 1.001 {
		t.Errorf("store ops delta = %v ops, %v s; want 7 ops at 1 ms mean", n, sum)
	}
	if got := delta(before, after, "beerd_missing_total", "beerd_missing_total"); got != 0 {
		t.Errorf("delta of a missing family = %v, want 0", got)
	}
}

func TestSpecStreamMix(t *testing.T) {
	a, b := newSpecStream(3), newSpecStream(3)
	blockA, blockB := a.block(rungJobs), b.block(rungJobs)
	probes := 0
	for i := range blockA {
		if string(blockA[i].body) != string(blockB[i].body) {
			t.Fatalf("same seed gave different spec %d: %s vs %s", i, blockA[i].body, blockB[i].body)
		}
		if blockA[i].probe {
			probes++
		}
	}
	// One rung is one fresh cycle (48) plus 48 resubmissions: exactly the
	// two full-sweep probes, all of them fresh.
	if probes != 2 {
		t.Errorf("rung holds %d full-sweep probes, want 2", probes)
	}
	recover, full := 0, 0
	for _, k := range freshKinds {
		if k != "simulate" {
			recover++
		}
		if k == "full32" {
			full++
		}
	}
	if recover != 20*full {
		t.Errorf("full sweeps are %d of %d fresh recover specs, want 1 in 20", full, recover)
	}
	for _, k := range resubKinds {
		if k == "full32" {
			t.Error("resubmissions include full-sweep probes")
		}
	}
	// The next block reuses earlier specs: resubmissions draw from the
	// carried-over pools.
	next := a.block(rungJobs)
	seen := map[*jobSpec]bool{}
	for _, s := range blockA {
		seen[s] = true
	}
	reused := 0
	for _, s := range next {
		if seen[s] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("second block resubmits nothing from the first")
	}
}

func TestSpreadKinds(t *testing.T) {
	got := spreadKinds(map[string]int{"a": 1, "b": 3})
	if strings.Join(got, "") != "babb" && strings.Join(got, "") != "bbab" {
		t.Errorf("spreadKinds = %v, want the single a between the bs", got)
	}
}

func TestCheckReply(t *testing.T) {
	code := repro.GroundTruth(repro.SimulatedChip(repro.MfrB, 8, 3))
	text, err := code.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	other, err := repro.NewHammingCode(8, 99).MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	spec := &jobSpec{truth: code}
	reply := func(s string) *resultReply {
		var r resultReply
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	body := func(unique bool, candidates int, code []byte) string {
		b, _ := json.Marshal(map[string]any{"recover": map[string]any{"unique": unique, "candidates": candidates, "code": string(code)}})
		return string(b)
	}
	for _, tc := range []struct {
		body string
		want outcome
	}{
		{body(true, 1, text), outUniqueMatch},
		{body(true, 1, other), outMismatch},
		{body(false, 2, text), outAmbiguous},
		{body(false, 0, nil), outUnsat},
		{`{}`, outError},
	} {
		if got := checkReply(spec, reply(tc.body)); got != tc.want {
			t.Errorf("checkReply(%s) = %s, want %s", tc.body, outcomeNames[got], outcomeNames[tc.want])
		}
	}
	sim := &jobSpec{sim: &simulateReply{N: 39, K: 32, Words: 10, Correctable: 4}}
	if got := checkReply(sim, reply(`{"simulate":{"n":39,"k":32,"words":10,"correctable":4}}`)); got != outUniqueMatch {
		t.Errorf("matching simulate result graded %s", outcomeNames[got])
	}
	if got := checkReply(sim, reply(`{"simulate":{"n":39,"k":32,"words":10,"correctable":5}}`)); got != outMismatch {
		t.Errorf("wrong simulate result graded %s", outcomeNames[got])
	}
}

func TestTallyCorrect(t *testing.T) {
	var tl tally
	tl.add(outUniqueMatch)
	tl.add(outUnsat)
	tl.add(outAmbiguous)
	tl.add(outError)
	if !tl.correct() || tl.failed() != 3 || tl.attempted() != 4 {
		t.Errorf("honest failures: correct %t, failed %d of %d; want true, 3 of 4", tl.correct(), tl.failed(), tl.attempted())
	}
	tl.add(outMismatch)
	if tl.correct() {
		t.Error("a wrong answer left the run correct")
	}
}

// TestBenchmarkJSONMatchesDriver holds BENCHMARK.json's metric lists and
// workloads in step with what perfbench reports.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []layerMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bench.PerLayer[i] != m {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, bench.PerLayer[i], m)
		}
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	want := map[string]string{}
	for name, unit := range endToEndUnits {
		want[name] = unit
	}
	for _, m := range bench.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s has unit %q, perfbench reports %q", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("perfbench metric %s missing from BENCHMARK.json end_to_end", name)
	}
}
