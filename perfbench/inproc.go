package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ondie"
	"repro/perfbench/pipelines"
)

// outcome classifies one operation's answer against ground truth.
type outcome int

const (
	outUniqueMatch outcome = iota // one code, equivalent to ground truth (or a matching simulate result)
	outMismatch                   // one code (or a simulate result) that is wrong
	outAmbiguous                  // more than one candidate code
	outUnsat                      // no code matches the profile
	outError                      // the call or job failed
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"unique_match", "mismatch", "ambiguous", "unsat", "error"}

// tally counts operations by outcome.
type tally [numOutcomes]int

func (t *tally) add(o outcome) { t[o]++ }

func (t tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// failed counts every operation whose answer is not a verified match.
func (t tally) failed() int { return t.attempted() - t[outUniqueMatch] }

// correct reports whether no operation returned a wrong answer. A failed
// recovery that says so (no code, several candidates, an error) counts in
// failed and verified_frac; only a wrong code or simulation makes a run
// incorrect.
func (t tally) correct() bool { return t[outMismatch] == 0 }

// classify grades a recovery or solve result against the true code.
func classify(res *core.Result, err error, truth *ecc.Code) outcome {
	switch {
	case err != nil || res == nil:
		return outError
	case len(res.Codes) == 0:
		return outUnsat
	case !res.Unique || len(res.Codes) > 1:
		return outAmbiguous
	case !res.Codes[0].EquivalentTo(truth):
		return outMismatch
	}
	return outUniqueMatch
}

// splitmix derives the i-th input seed of a run from its --seed.
func splitmix(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1 // never 0: a zero seed means "default" to some APIs
}

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 51

// measureSetup times the workload's program set-up as a library user pays
// it: the setupprobe binary starts, initialises the repro packages, builds
// the workload's pipeline and exits. It returns the median seconds and the
// same pipeline built in this process.
func measureSetup(cfg config, workload string) (float64, *repro.Pipeline, error) {
	if cfg.probe == "" {
		return 0, nil, fmt.Errorf("%s needs -setupprobe (run through perfbench/run.sh)", workload)
	}
	var times []float64
	for range setupRepeats {
		start := time.Now()
		if out, err := exec.Command(cfg.probe, workload).CombinedOutput(); err != nil {
			return 0, nil, fmt.Errorf("set-up probe: %v: %s", err, out)
		}
		times = append(times, time.Since(start).Seconds())
	}
	pipe, _ := pipelines.For(workload)
	return median(times), pipe, nil
}

// e2eSamples is how many verified operations an end-to-end run needs for
// its p90; traceSamples is the floor for a traced run, whose figures are
// means and medians.
var e2eSamples = minSamples(0.9)

const traceSamples = 10

// loop is the state of a closed-loop run with one caller.
type loop struct {
	lat       []float64     // latency of each kept verified operation, ms
	tally     tally         // outcomes of every operation, kept or not
	kept      int           // operations whose timing counts
	discarded int           // operations timed while the host stole CPU
	busy      time.Duration // time inside the program's calls (kept operations)
	cpu       time.Duration // process CPU during those calls (kept operations)
}

// closedLoop calls op with increasing indices until the run has lasted
// cfg.seconds and holds enough verified samples for a p90 with minTail
// samples beyond it (need verified operations). op returns the timed
// call's wall and CPU time; traced runs interleave untimed companion calls.
// Every operation's outcome counts; the timing of one during which the
// hypervisor stole more than maxStealFrac of the host's CPU is discarded,
// for at most a quarter of the operations, so that a host under steal for
// the whole run still finishes it.
func closedLoop(cfg config, need int, op func(i int) (time.Duration, time.Duration, outcome, error)) (*loop, error) {
	l := &loop{}
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || len(l.lat) < need; i++ {
		if time.Since(start) > deadline {
			return nil, fmt.Errorf("only %d verified operations in %v; need %d for p90", len(l.lat), deadline, need)
		}
		steal := startSteal()
		d, cpu, o, err := op(i)
		if err != nil {
			return nil, err
		}
		l.tally.add(o)
		if steal.frac() > maxStealFrac && l.discarded < l.tally.attempted()/4 {
			l.discarded++
			continue
		}
		l.kept++
		l.busy += d
		l.cpu += cpu
		if o == outUniqueMatch {
			l.lat = append(l.lat, ms(d))
		}
	}
	if l.discarded > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: discarded the timing of %d of %d operations for host CPU steal\n",
			l.discarded, l.tally.attempted())
	}
	return l, nil
}

// timed runs fn and returns its wall and process CPU time.
func timed(fn func()) (time.Duration, time.Duration) {
	cpu0 := selfCPU()
	start := time.Now()
	fn()
	return time.Since(start), selfCPU() - cpu0
}

// loopResult turns a closed loop into the end-to-end metrics.
func loopResult(l *loop, setupS float64) (*result, error) {
	p50, _ := percentile(l.lat, 0.5)
	p90, ok := percentile(l.lat, 0.9)
	if !ok {
		return nil, fmt.Errorf("p90 of %d samples has fewer than %d beyond it", len(l.lat), minTail)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	n := l.tally.attempted()
	return &result{
		Correct:   l.tally.correct(),
		Attempted: n,
		Failed:    l.tally.failed(),
		Metrics: endToEnd(map[string]float64{
			"setup_s":       setupS,
			"op_ms_p50":     p50,
			"op_ms_p90":     p90,
			"ops_per_s":     float64(len(l.lat)) / l.busy.Seconds(),
			"verified_frac": float64(l.tally[outUniqueMatch]) / float64(n),
			"cpu_ms_per_op": ms(l.cpu) / float64(l.kept),
			"rss_peak_mb":   rss,
		}),
	}, nil
}

// --- recover-sweep ---------------------------------------------------------

var sweepMfrs = [...]repro.Manufacturer{repro.MfrA, repro.MfrB, repro.MfrC}

const sweepK = 16

// sweepChip is operation i's fresh chip.
func sweepChip(seed uint64, i int) *ondie.Chip {
	return repro.SimulatedChip(sweepMfrs[i%len(sweepMfrs)], sweepK, splitmix(seed, i))
}

func runRecoverSweep(cfg config) (*result, error) {
	setupS, pipe, err := measureSetup(cfg, "recover-sweep")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if cfg.trace {
		return traceRecoverSweep(ctx, cfg, pipe)
	}
	l, err := closedLoop(cfg, e2eSamples, func(i int) (time.Duration, time.Duration, outcome, error) {
		chip := sweepChip(cfg.seed, i)
		var (
			rep *core.Report
			err error
		)
		d, cpu := timed(func() { rep, err = pipe.Recover(ctx, chip) })
		return d, cpu, classify(resultOf(rep), err, repro.GroundTruth(chip)), nil
	})
	if err != nil {
		return nil, err
	}
	return loopResult(l, setupS)
}

func resultOf(rep *core.Report) *core.Result {
	if rep == nil {
		return nil
	}
	return rep.Result
}

// layered is the output of one traced recovery: the same artifacts
// Pipeline.Recover reports, produced by calling each layer in turn.
type layered struct {
	counts  *core.Counts
	profile *core.Profile
	result  *core.Result
}

// tracedRecover repeats Pipeline.Recover's single-chip path — discovery,
// collection of the configured pattern set, threshold, solve stage — with
// a span around each layer call.
func tracedRecover(ctx context.Context, t *tracer, op int, chip core.Chip, opts core.RecoverOptions) (*layered, error) {
	tc := &tracedChip{Chip: chip, t: t}
	root := t.begin(op, "recover")
	defer t.end(root)

	sp := t.begin(op, "discover")
	_, rows, layout, err := core.DiscoverChip(tc, opts)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.begin(op, "collect")
	counts, err := core.CollectCounts(ctx, tc, rows, layout, opts.PatternSet.Patterns(layout.K()), opts.Collect)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.begin(op, "threshold")
	profile := counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
	t.end(sp)

	sp = t.begin(op, "solve")
	res, err := core.SolveStage(ctx, profile, opts)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	return &layered{counts: counts, profile: profile, result: res}, nil
}

// countsBytes serializes counts canonically for the equivalence check.
func countsBytes(c *core.Counts) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "k=%d\n", c.K)
	for _, e := range c.Entries {
		fmt.Fprintf(&b, "%s anti=%t words=%d", e.Pattern, e.Anti, e.Words)
		for _, n := range e.Errors {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(n, 10))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func codeBytes(res *core.Result) []byte {
	if res == nil || len(res.Codes) == 0 {
		return nil
	}
	text, err := res.Codes[0].MarshalText()
	if err != nil {
		return nil
	}
	return text
}

// layerStats accumulates per-operation layer figures of a traced run.
type layerStats struct {
	determine, uniqueness               time.Duration
	vars, clauses, entriesUsed, entries float64
	conflicts, decisions, propagations  float64
	entriesKept, wordReads              float64
	untraced, traced                    []float64 // ms, for the overhead
	mismatch                            int       // equivalence failures
}

func (s *layerStats) addSolve(res *core.Result, entries int) {
	if res == nil {
		return
	}
	s.determine += res.DetermineTime
	s.uniqueness += res.UniquenessTime
	s.vars += float64(res.Vars)
	s.clauses += float64(res.Clauses)
	s.entriesUsed += float64(res.PatternsUsed)
	s.entries += float64(entries)
	s.conflicts += float64(res.Stats.Conflicts)
	s.decisions += float64(res.Stats.Decisions)
	s.propagations += float64(res.Stats.Propagations)
}

// traceRecoverSweep alternates an untraced Pipeline.Recover with a traced
// layer-by-layer recovery of an identical fresh chip, checks that both
// give byte-identical counts, profile hash and code, and reports the
// traced run's per-layer figures.
func traceRecoverSweep(ctx context.Context, cfg config, pipe *repro.Pipeline) (*result, error) {
	t := newTracer()
	opts := pipe.RecoverOptions()
	var st layerStats
	l, err := closedLoop(cfg, traceSamples, func(i int) (time.Duration, time.Duration, outcome, error) {
		truth := repro.GroundTruth(sweepChip(cfg.seed, i))
		var (
			rep      *core.Report
			lay      *layered
			errU     error
			errT     error
			dU, dT   time.Duration
			cpuT     time.Duration
			untraced = func() { dU, _ = timed(func() { rep, errU = pipe.Recover(ctx, sweepChip(cfg.seed, i)) }) }
			traced   = func() {
				chip := sweepChip(cfg.seed, i)
				dT, cpuT = timed(func() { lay, errT = tracedRecover(ctx, t, i, chip, opts) })
			}
		)
		// Alternate which side runs first: the second chip of a pair
		// finds its retention table already built.
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		o := classify(resultOf(rep), errU, truth)
		ot := outError
		if errT == nil {
			ot = classify(lay.result, nil, truth)
			st.addSolve(lay.result, len(lay.profile.Entries))
			st.entriesKept += float64(keptEntries(lay.profile))
			st.wordReads += float64(wordReads(lay.counts))
		}
		if o != ot || (errU == nil && errT == nil && !sameRecovery(rep, lay)) {
			st.mismatch++
		}
		st.untraced = append(st.untraced, ms(dU))
		st.traced = append(st.traced, ms(dT))
		return dT, cpuT, ot, nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-recover-sweep-seed%d.jsonl", cfg.seed))); err != nil {
		return nil, err
	}
	return layerResult(l, &st, t), nil
}

func sameRecovery(rep *core.Report, lay *layered) bool {
	return bytes.Equal(countsBytes(rep.Counts), countsBytes(lay.counts)) &&
		rep.Profile.Hash() == lay.profile.Hash() &&
		bytes.Equal(codeBytes(rep.Result), codeBytes(lay.result))
}

// keptEntries counts profile entries with at least one bit the threshold
// kept as miscorrection-susceptible.
func keptEntries(p *core.Profile) int {
	n := 0
	for _, e := range p.Entries {
		if e.Possible.Weight() > 0 {
			n++
		}
	}
	return n
}

func wordReads(c *core.Counts) int64 {
	var n int64
	for _, e := range c.Entries {
		n += e.Words
	}
	return n
}

// --- solve-exact -----------------------------------------------------------

const solveK = 24

// solveInput is operation i's code and its closed-form {1,2}-CHARGED
// profile.
func solveInput(seed uint64, i int) (*ecc.Code, *core.Profile) {
	code := repro.NewHammingCode(solveK, splitmix(seed, i))
	return code, repro.ExactProfile(code, repro.Set12.Patterns(solveK))
}

func runSolveExact(cfg config) (*result, error) {
	setupS, pipe, err := measureSetup(cfg, "solve-exact")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if cfg.trace {
		return traceSolveExact(ctx, cfg, pipe)
	}
	l, err := closedLoop(cfg, e2eSamples, func(i int) (time.Duration, time.Duration, outcome, error) {
		code, profile := solveInput(cfg.seed, i)
		var (
			res *core.Result
			err error
		)
		d, cpu := timed(func() { res, err = pipe.Solve(ctx, profile) })
		return d, cpu, classify(res, err, code), nil
	})
	if err != nil {
		return nil, err
	}
	return loopResult(l, setupS)
}

// traceSolveExact alternates an untraced Pipeline.Solve with a traced
// core.SolveStage on the same profile and checks both recover the same
// code.
func traceSolveExact(ctx context.Context, cfg config, pipe *repro.Pipeline) (*result, error) {
	t := newTracer()
	opts := pipe.RecoverOptions()
	var st layerStats
	l, err := closedLoop(cfg, traceSamples, func(i int) (time.Duration, time.Duration, outcome, error) {
		code, profile := solveInput(cfg.seed, i)
		var (
			resU, resT *core.Result
			errU, errT error
			dU, dT     time.Duration
			cpuT       time.Duration
			untraced   = func() { dU, _ = timed(func() { resU, errU = pipe.Solve(ctx, profile) }) }
			traced     = func() {
				dT, cpuT = timed(func() {
					sp := t.begin(i, "solve")
					resT, errT = core.SolveStage(ctx, profile, opts)
					t.end(sp)
				})
			}
		)
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		o, ot := classify(resU, errU, code), classify(resT, errT, code)
		if o != ot || !bytes.Equal(codeBytes(resU), codeBytes(resT)) {
			st.mismatch++
		}
		st.addSolve(resT, len(profile.Entries))
		st.untraced = append(st.untraced, ms(dU))
		st.traced = append(st.traced, ms(dT))
		return dT, cpuT, ot, nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-solve-exact-seed%d.jsonl", cfg.seed))); err != nil {
		return nil, err
	}
	return layerResult(l, &st, t), nil
}

// layerResult assembles the per-layer metrics of an in-process traced run.
// Layers the workload does not reach report 0.
func layerResult(l *loop, st *layerStats, t *tracer) *result {
	n := float64(l.tally.attempted())
	total, self := t.layerTotals()
	perOp := func(d time.Duration) float64 { return ms(d) / n }
	m := zeroLayerMetrics()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("ondie.read_rows", float64(t.readRows)/n)
	set("ondie.read_ms", perOp(t.readTime))
	set("ondie.write_rows", float64(t.writeRows)/n)
	set("ondie.write_ms", perOp(t.writeTime))
	set("discover.ms", perOp(total["discover"]))
	set("discover.self_ms", perOp(self["discover"]))
	set("collect.ms", perOp(total["collect"]))
	set("collect.self_ms", perOp(self["collect"]))
	set("collect.word_reads", st.wordReads/n)
	set("threshold.ms", perOp(total["threshold"]))
	set("threshold.entries_kept", st.entriesKept/n)
	set("recover.self_ms", perOp(self["recover"]))
	set("solve.ms", perOp(total["solve"]))
	set("solve.determine_ms", perOp(st.determine))
	set("solve.uniqueness_ms", perOp(st.uniqueness))
	set("solve.vars", st.vars/n)
	set("solve.clauses", st.clauses/n)
	if st.entries > 0 {
		set("solve.entries_used_frac", st.entriesUsed/st.entries)
	}
	set("sat.conflicts", st.conflicts/n)
	set("sat.decisions", st.decisions/n)
	set("sat.propagations", st.propagations/n)
	mu, mt := median(st.untraced), median(st.traced)
	set("trace.overhead_frac", (mt-mu)/mu)
	setOutcomes(m, l.tally)
	return &result{
		Correct:   l.tally.correct() && st.mismatch == 0,
		Attempted: l.tally.attempted(),
		Failed:    l.tally.failed() + st.mismatch,
		Metrics:   m,
	}
}

func setOutcomes(m map[string]metric, t tally) {
	for o, name := range outcomeNames {
		m["outcome."+name] = metric{float64(t[o]), "count"}
	}
	m["fail_frac"] = metric{float64(t.failed()) / float64(t.attempted()), "fraction"}
}
