// Command perfbench is the repository's benchmark. It runs one named
// workload against the BEER reproduction, checks every operation's output
// against ground truth, and prints one JSON result object as the last line
// of standard output: the end-to-end metrics with -trace 0, the per-layer
// metrics of a separately traced run with -trace 1.
//
// Build and run it from the repository root through perfbench/run.sh,
// which compiles perfbench, its set-up probe and cmd/beerd into
// .bench_build/:
//
//	bash perfbench/run.sh --workload recover-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// Workloads (see LAYERS.md for the metric map):
//
//	recover-sweep  in-process Pipeline.Recover on fresh k=16 chips (A, B, C)
//	solve-exact    in-process Pipeline.Solve on exact k=24 profiles
//	serve-mixed    beerd child process under an open-loop job mix
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric with its unit. The run
// reports verified_frac (1 - fail_frac) so that no end-to-end value is 0
// on a healthy run; fail_frac itself is a per-layer metric.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"op_ms_p50":     "ms",
	"op_ms_p90":     "ms",
	"ops_per_s":     "1/s",
	"verified_frac": "fraction",
	"cpu_ms_per_op": "ms",
	"rss_peak_mb":   "MiB",
}

// endToEnd attaches units to a full set of end-to-end values.
func endToEnd(values map[string]float64) map[string]metric {
	if len(values) != len(endToEndUnits) {
		panic(fmt.Sprintf("perfbench: %d end-to-end values, want %d", len(values), len(endToEndUnits)))
	}
	m := make(map[string]metric, len(values))
	for name, v := range values {
		unit, ok := endToEndUnits[name]
		if !ok {
			panic("perfbench: unknown end-to-end metric " + name)
		}
		m[name] = metric{v, unit}
	}
	return m
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line to a workload.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	beerd   string // path of the built beerd binary (serve-mixed)
	probe   string // path of the built setupprobe binary (in-process workloads)
	outDir  string // where spans and run records are written
}

// deadline bounds every run well inside the 180 s a run may take.
const deadline = 150 * time.Second

var workloads = map[string]func(cfg config) (*result, error){
	"recover-sweep": runRecoverSweep,
	"solve-exact":   runSolveExact,
	"serve-mixed":   runServeMixed,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"recover-sweep", "solve-exact", "serve-mixed"}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: recover-sweep, solve-exact, serve-mixed, or all (each in turn)")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured duration of the run in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		beerd    = flag.String("beerd", "", "path of the beerd binary (serve-mixed)")
		outDir   = flag.String("out", ".bench_build/perfbench/out", "directory for span dumps and run records")
		probe    = flag.String("setupprobe", "", "path of the built setupprobe binary (in-process workloads)")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fatalf("unknown workload %q (want recover-sweep, solve-exact, serve-mixed or all)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		beerd:   *beerd,
		probe:   *probe,
		outDir:  *outDir,
	}

	prov := provenance()
	// Each workload's result is printed with its provenance and kept in
	// outDir; the last line is the result alone (for all: every metric
	// prefixed with its workload).
	final := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range names {
		steal := startSteal()
		res, err := workloads[w](cfg)
		if err != nil {
			fatalf("%s: %v", w, err)
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fatalf("%s: metric %s is %v", w, name, m.Value)
			}
		}
		// Stolen CPU time during the run, on virtual machines: a run with
		// much of it measured a busy host, not the program.
		stealFrac := steal.frac()
		fmt.Fprintf(os.Stderr, "perfbench: %s: host CPU steal during the run %.1f%%\n", w, 100*stealFrac)
		record := map[string]any{"workload": w, "seed": *seed, "trace": *trace, "provenance": prov,
			"cpu_steal_frac": stealFrac, "result": res}
		line, err := json.Marshal(record)
		if err != nil {
			fatalf("%v", err)
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", w, *seed, *trace)
		if err := os.WriteFile(filepath.Join(*outDir, name), append(line, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		if len(names) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[w+"/"+k] = v
		}
	}
	last, err := json.Marshal(final)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(last))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
