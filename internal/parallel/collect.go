package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// CollectShards runs n independent miscorrection-count collectors across the
// worker pool and merges their counts in shard order via core.Counts.Merge.
// This is the paper's §6.3 parallelization: counts gathered from several
// chips (or banks) of the same model simply add. Each collector must be
// self-contained (own chip, own rows) — core.Chip implementations are
// stateful and not safe to share between shards. A collector may return nil
// counts to contribute nothing; when every shard does, the result is nil.
// The merged result is bit-identical for any worker count because each
// shard's collection is deterministic in isolation and the merge order is
// fixed. Cancelling ctx stops scheduling further shards and returns
// ctx.Err().
func (e *Engine) CollectShards(ctx context.Context, n int, collect func(shard int) (*core.Counts, error)) (*core.Counts, error) {
	if n <= 0 {
		return nil, fmt.Errorf("parallel: no collection shards")
	}
	counts := make([]*core.Counts, n)
	err := e.ForEach(ctx, n, func(i int) error {
		c, err := collect(i)
		if err != nil {
			return err
		}
		counts[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged *core.Counts
	for _, c := range counts {
		switch {
		case c == nil:
		case merged == nil:
			merged = c
		default:
			if err := merged.Merge(c); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// Recover runs the complete BEER methodology (paper §5) against one or more
// chips of the same model; it is the repository's one recover driver, and a
// single chip is simply the N=1 case (§6.3: same-model chips share an ECC
// function, so their counts add). Discovery fans out one chip per task and
// every chip must discover the identical word layout, since counts collected
// under different layouts refer to different physical bits; the report's
// discovery fields come from chip 0. Collection then follows one of two
// strategies, chosen by opts.UsePlanner:
//
//   - Sweep: every chip collects the whole pattern family (plus, with
//     UseAntiRows, the inverted 1-CHARGED family over its anti-cell rows),
//     the merged counts are thresholded (§5.2), optionally perturbed
//     (PerturbProfile), and solved once by core.SolveStage, which consults
//     opts.SolveCache first.
//   - Planner: a core.Planner drives batched collection, each batch fanning
//     out across every chip with the merged counts feeding one persistent
//     incremental solver, and the whole fleet stops collecting the moment
//     the code is uniquely determined.
//
// Every chip runs discovery, then its main sweep, then its anti sweep on its
// own chip object, so the collected counts do not depend on the worker
// count. DiscoveryTime covers discovery; CollectTime covers collection and
// thresholding (for the planner, its collect batches); SolveTime the solve.
//
// Cancelling ctx stops every chip's collection at its next pass boundary and
// interrupts an in-flight SAT solve; the error is ctx.Err(). Progress events
// (opts.Progress) are stamped with the chip index and serialized: the
// callback never runs concurrently with itself for one Recover call, and
// each chip's collection pass counters stay monotonic across its sweeps.
func (e *Engine) Recover(ctx context.Context, chips []core.Chip, opts core.RecoverOptions) (*core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(chips) == 0 {
		return nil, fmt.Errorf("parallel: no chips")
	}
	if opts.UsePlanner && opts.UseAntiRows {
		return nil, fmt.Errorf("parallel: the adaptive planner does not support anti-cell collection")
	}
	var progressMu sync.Mutex
	stamp := func(fn core.ProgressFunc, chip int) core.ProgressFunc {
		if fn == nil {
			return nil
		}
		return func(ev core.Event) {
			ev.Chip = chip
			progressMu.Lock()
			defer progressMu.Unlock()
			fn(ev)
		}
	}
	progress := opts.Progress
	opts.Progress = stamp(progress, 0)
	emit := func(chip int, ev core.Event) {
		if fn := stamp(progress, chip); fn != nil {
			fn(ev)
		}
	}

	rep := &core.Report{}
	start := time.Now()
	classes := make([][][]core.CellClass, len(chips))
	rows := make([][]core.RowRef, len(chips))
	layouts := make([]core.WordLayout, len(chips))
	err := e.ForEach(ctx, len(chips), func(i int) error {
		emit(i, core.Event{Stage: core.StageDiscover})
		var err error
		classes[i], rows[i], layouts[i], err = core.DiscoverChip(chips[i], opts)
		if err != nil {
			return fmt.Errorf("chip %d: %w", i, err)
		}
		emit(i, core.Event{Stage: core.StageDiscover, Done: true})
		return nil
	})
	rep.CellClasses = classes[0]
	if err != nil {
		return rep, fmt.Errorf("parallel: %w", err)
	}
	rep.Layout = layouts[0]
	rep.K = rep.Layout.K()
	for i, layout := range layouts[1:] {
		if !layout.Equal(rep.Layout) {
			return rep, fmt.Errorf("parallel: chip %d discovered a different word layout than chip 0 (different models?)", i+1)
		}
	}
	rep.DiscoveryTime = time.Since(start)

	// One pass-offsetter per chip keeps each chip's pass counters monotonic
	// across its sweeps (anti after main, or the planner's batches).
	collectOpts := opts.Collect
	if collectOpts.Progress == nil {
		collectOpts.Progress = progress
	}
	offsets := make([]*core.CollectPassOffset, len(chips))
	for i := range offsets {
		offsets[i] = core.NewCollectPassOffset(stamp(collectOpts.Progress, i))
	}
	// sweep collects patterns from every chip's rows and merges the counts;
	// chips without rows contribute nothing.
	sweep := func(ctx context.Context, rows [][]core.RowRef, patterns []core.Pattern, sweepOpts core.CollectOptions) (*core.Counts, error) {
		return e.CollectShards(ctx, len(chips), func(i int) (*core.Counts, error) {
			if len(rows[i]) == 0 {
				return nil, nil
			}
			chipOpts := sweepOpts
			chipOpts.Progress = offsets[i].Next(sweepOpts)
			return core.CollectCounts(ctx, chips[i], rows[i], rep.Layout, patterns, chipOpts)
		})
	}
	collectDone := func() {
		for i := range chips {
			emit(i, core.Event{Stage: core.StageCollect, Done: true})
		}
	}

	var res *core.Result
	start = time.Now()
	if opts.UsePlanner {
		planner, err := core.NewPlanner(rep.K, opts)
		if err != nil {
			return rep, err
		}
		res, err = planner.Run(ctx, func(ctx context.Context, patterns []core.Pattern) (*core.Counts, error) {
			return sweep(ctx, rows, patterns, collectOpts)
		})
		rep.Counts = planner.Counts()
		rep.Profile = planner.Profile()
		info := planner.Info()
		rep.Plan = &info
		rep.CollectTime, rep.SolveTime = planner.Times()
		if err != nil {
			return rep, fmt.Errorf("parallel: planned recovery: %w", err)
		}
		collectDone()
		// The profile is not known until collected, so the cache can only
		// be fed, never consulted.
		if opts.SolveCache != nil {
			opts.SolveCache.Store(rep.Profile, res)
		}
	} else {
		rep.Counts, err = sweep(ctx, rows, opts.PatternSet.Patterns(rep.K), collectOpts)
		if err != nil {
			return rep, fmt.Errorf("parallel: collect: %w", err)
		}
		rep.Profile = rep.Counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
		if opts.UseAntiRows {
			antiRows := make([][]core.RowRef, len(chips))
			for i := range chips {
				antiRows[i] = core.AntiRows(classes[i])
				if opts.MaxRows > 0 && len(antiRows[i]) > opts.MaxRows {
					antiRows[i] = antiRows[i][:opts.MaxRows]
				}
			}
			antiOpts := collectOpts
			antiOpts.Invert = true
			// Anti regions contribute the 1-CHARGED patterns only: those
			// carry the extra row-parity information, and the much smaller
			// pattern count keeps per-pattern sample density high enough
			// that no rare miscorrection goes unobserved (a missed
			// observation would add a false "impossible" constraint, §5.2).
			anti, err := sweep(ctx, antiRows, core.OneCharged(rep.K), antiOpts)
			if err != nil {
				return rep, fmt.Errorf("parallel: anti-cell collect: %w", err)
			}
			if anti != nil {
				rep.Profile = rep.Profile.Append(anti.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount))
			}
		}
		if opts.PerturbProfile != nil {
			rep.Profile = opts.PerturbProfile(rep.Profile)
		}
		rep.CollectTime = time.Since(start)
		collectDone()

		start = time.Now()
		res, err = core.SolveStage(ctx, rep.Profile, opts)
		rep.SolveTime = time.Since(start)
		if err != nil {
			return rep, fmt.Errorf("parallel: solve: %w", err)
		}
	}
	rep.Result = res
	done := core.Event{Stage: core.StageSolve, Candidates: len(res.Codes), Done: true}
	if rep.Plan != nil {
		done.Conflicts, done.Propagations = res.Stats.Conflicts, res.Stats.Propagations
		done.PatternsUsed, done.PatternsPlanned = rep.Plan.PatternsUsed, rep.Plan.PatternsFull
	}
	emit(0, done)
	return rep, nil
}
