package core

import (
	"context"
	"fmt"
	"time"
)

// RecoverOptions configures the end-to-end BEER pipeline.
type RecoverOptions struct {
	Layout  LayoutOptions
	Collect CollectOptions
	Solve   SolveOptions
	// PatternSet selects which test-pattern family to collect. The paper's
	// recommendation: 1-CHARGED suffices for full-length codes; add the
	// 2-CHARGED patterns for shortened codes (Set12).
	PatternSet PatternSet
	// ThresholdFraction and ThresholdMinCount configure the §5.2 filter.
	ThresholdFraction float64
	ThresholdMinCount int64
	// MaxRows caps how many true-cell rows are used for collection (0 = all).
	MaxRows int
	// UseAntiRows additionally collects inverted-pattern profiles from
	// anti-cell rows (extension; see Entry.Anti). On chips that mix cell
	// types this roughly doubles the usable capacity and adds row-parity
	// information the true-cell profile cannot express.
	UseAntiRows bool
	// UsePlanner replaces the exhaustive pattern sweep with the adaptive
	// planner (see Planner): collection proceeds in batches that feed a
	// persistent incremental solver, and stops the moment the ECC function
	// is uniquely determined or the Plan budget is hit. Incompatible with
	// UseAntiRows (the planner schedules true-cell patterns only).
	UsePlanner bool
	// Plan tunes the adaptive planner (batch size, pattern budget).
	Plan PlanOptions
	// SolveCache, when set, short-circuits the solve stage: a profile whose
	// canonical hash (Profile.Hash) was solved before replays the cached
	// Result with zero SAT invocations, and fresh successful solves are
	// offered back to the cache. See the SolveCache interface contract.
	// Noisy solves (Solve.Noisy) bypass the cache entirely: its key is the
	// profile alone, but a noisy result also depends on the drop budget and
	// support scores.
	SolveCache SolveCache
	// DiscoveryCache, when set, memoizes the §5.1 discovery stage across
	// recoveries of identically-configured chips: a chip exposing LayoutKey
	// (the LayoutKeyer extension) whose key plus discovery options were seen
	// before reuses the cached cell classes, row list and word layout without
	// touching the chip. Discovery's outcome is a pure function of the key,
	// but skipping its reads does advance the chip's read history differently,
	// so collected raw counts can differ from an uncached run at the VRT-noise
	// level — exactly the noise the §5.2 threshold filter rejects. Serving
	// paths opt in (beerd); CLIs and tests run uncached by default.
	DiscoveryCache DiscoveryCache
	// PerturbProfile, when set, transforms the thresholded profile before
	// the solve stage — the injection point for probabilistic observation
	// models (internal/noise installs per-bit Bernoulli FP-injection /
	// TP-dropout perturbation here). Applied by parallel.Engine.Recover's
	// sweep strategy after count merging and thresholding; the planner
	// strategy does not support it (the planner's solver consumes entries
	// as collected).
	PerturbProfile func(*Profile) *Profile
	// Progress, when set, receives pipeline events: stage entries and
	// completions, per-(round, window) collection passes, and solver
	// candidate counts. See ProgressFunc for the concurrency contract.
	Progress ProgressFunc
}

// DefaultRecoverOptions mirrors the paper's experimental configuration.
func DefaultRecoverOptions() RecoverOptions {
	return RecoverOptions{
		Layout:            DefaultLayoutOptions(),
		Collect:           DefaultCollectOptions(),
		PatternSet:        Set12,
		ThresholdFraction: 1e-4,
		ThresholdMinCount: 2,
	}
}

// Report is the full output of a BEER run against a chip.
type Report struct {
	// CellClasses is the discovered per-row cell layout (§5.1.1).
	CellClasses [][]CellClass
	// Layout is the discovered dataword layout (§5.1.2).
	Layout WordLayout
	// K is the discovered dataword length in bits.
	K int
	// Counts are the raw observations; Profile the thresholded profile.
	Counts  *Counts
	Profile *Profile
	// Result holds the recovered ECC function(s).
	Result *Result
	// Plan summarizes the adaptive planner's run (patterns used vs. the
	// full sweep); nil for exhaustive-sweep recoveries.
	Plan *PlanInfo
	// Timing of the three steps.
	DiscoveryTime, CollectTime, SolveTime time.Duration
}

// DiscoverChip runs the §5.1.1-5.1.2 discovery steps against one chip:
// classify every row's cell polarity, then group region bytes into ECC
// datawords over the (MaxRows-capped) true-cell rows. It is the discovery
// stage of parallel.Engine.Recover, which runs it once per chip.
func DiscoverChip(chip Chip, opts RecoverOptions) (classes [][]CellClass, rows []RowRef, layout WordLayout, err error) {
	var cacheKey string
	if opts.DiscoveryCache != nil {
		if lk, ok := chip.(LayoutKeyer); ok {
			if ck := lk.LayoutKey(); ck != "" {
				cacheKey = fmt.Sprintf("%s|layout=%+v|maxrows=%d", ck, opts.Layout, opts.MaxRows)
				if d, ok := opts.DiscoveryCache.Lookup(cacheKey); ok {
					return d.CellClasses, d.Rows, d.Layout, nil
				}
			}
		}
	}
	classes = DiscoverCellLayout(chip, opts.Layout)
	rows = TrueRows(classes)
	if len(rows) == 0 {
		return classes, nil, WordLayout{}, fmt.Errorf("core: no true-cell rows discovered")
	}
	if opts.MaxRows > 0 && len(rows) > opts.MaxRows {
		rows = rows[:opts.MaxRows]
	}
	layout, err = DiscoverWordLayout(chip, rows, opts.Layout)
	if err != nil {
		return classes, rows, layout, fmt.Errorf("core: word layout: %w", err)
	}
	if cacheKey != "" {
		opts.DiscoveryCache.Store(cacheKey, &DiscoveredLayout{CellClasses: classes, Rows: rows, Layout: layout})
	}
	return classes, rows, layout, nil
}

// CollectPassOffset adapts a collect-progress stream to a run made of
// several CollectCounts sweeps (the anti-cell sweep after the main one,
// or the planner's batches): each sweep's pass counters restart at 1, so
// this wrapper offsets them by the passes of the sweeps already finished —
// Pass stays monotonic across the whole run and never exceeds Passes,
// whose total revises upward sweep by sweep.
type CollectPassOffset struct {
	base   ProgressFunc
	offset int
}

// NewCollectPassOffset wraps base (may be nil) for multi-sweep collection.
func NewCollectPassOffset(base ProgressFunc) *CollectPassOffset {
	return &CollectPassOffset{base: base}
}

// Next returns the progress callback for the next sweep (nil when no base
// consumer exists) and adds that sweep's pass count to the running offset.
// sweepOpts must be the CollectOptions the sweep will run with.
func (pc *CollectPassOffset) Next(sweepOpts CollectOptions) ProgressFunc {
	base := pc.base
	offset := pc.offset
	pc.offset += sweepPasses(sweepOpts)
	if base == nil {
		return nil
	}
	return func(ev Event) {
		ev.Pass += offset
		ev.Passes += offset
		base(ev)
	}
}

// SolveStage runs the solve stage of a recovery: consult the SolveCache (if
// any) for a result under the profile's canonical hash, otherwise run Solve
// and offer the result back. Noisy solves (Solve.Noisy) run SolveNoisy and
// bypass the cache. A cache hit replays the original Result — including its
// recorded solver timings — without any SAT invocation; the surrounding
// Report's SolveTime then measures only the lookup. Shared by
// parallel.Engine.Recover and Pipeline.Solve, so recoveries and profile-only
// solves hit the same registry.
func SolveStage(ctx context.Context, profile *Profile, opts RecoverOptions) (*Result, error) {
	solveOpts := opts.Solve
	if solveOpts.Progress == nil {
		solveOpts.Progress = opts.Progress
	}
	if solveOpts.Noisy != nil {
		// Noisy solves neither consult nor feed the SolveCache: the cache
		// key is the profile hash alone, and a noisy result additionally
		// depends on the drop budget and entry-support scores.
		return SolveNoisy(ctx, profile, solveOpts)
	}
	if opts.SolveCache != nil {
		if res, ok := opts.SolveCache.Lookup(profile); ok {
			opts.Progress.emit(Event{Stage: StageSolve, Candidates: len(res.Codes)})
			return res, nil
		}
	}
	res, err := Solve(ctx, profile, solveOpts)
	if err != nil {
		return nil, err
	}
	if opts.SolveCache != nil {
		opts.SolveCache.Store(profile, res)
	}
	return res, nil
}

// ExperimentRuntime implements the paper's §6.3 analytical runtime model:
// total experiment time is dominated by the refresh pauses, so it is the sum
// of the tested windows times the number of rounds; chip I/O (the paper
// measures 168 ms to read a 2 GiB LPDDR4-3200 chip) is negligible besides.
func ExperimentRuntime(opts CollectOptions) time.Duration {
	var total time.Duration
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for _, w := range opts.Windows {
		total += w
	}
	return total * time.Duration(rounds)
}
