package parallel

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ondie"
)

// TestRecoverPlannedMultiChip runs the adaptive planner over a two-chip
// fleet: the merged batches must recover the ground-truth function
// uniquely with strictly fewer patterns than the full sweep, the result
// must be bit-identical to the exhaustive multi-chip recovery, and the
// outcome must not depend on the worker count.
func TestRecoverPlannedMultiChip(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.Collect.Rounds = 3

	full, err := New(2).Recover(context.Background(), []core.Chip{testChip(t, 200), testChip(t, 201)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Result.Unique {
		t.Fatalf("full sweep not unique (%d candidates)", len(full.Result.Codes))
	}

	opts.UsePlanner = true
	var wantH string
	for _, workers := range workerCounts {
		chips := []core.Chip{testChip(t, 200), testChip(t, 201)}
		rep, err := New(workers).Recover(context.Background(), chips, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Result.Unique {
			t.Fatalf("workers=%d: planned recovery not unique (%d candidates)", workers, len(rep.Result.Codes))
		}
		if rep.Plan == nil || rep.Plan.PatternsUsed >= rep.Plan.PatternsFull {
			t.Fatalf("workers=%d: plan %+v, want strictly fewer patterns than the full sweep", workers, rep.Plan)
		}
		truth := testChip(t, 200).GroundTruthCode()
		if !rep.Result.Codes[0].EquivalentTo(truth) {
			t.Fatalf("workers=%d: recovered wrong function", workers)
		}
		gotH := rep.Result.Codes[0].H().String()
		if gotH != full.Result.Codes[0].H().String() {
			t.Fatalf("workers=%d: planned code differs from full-sweep code", workers)
		}
		if wantH == "" {
			wantH = gotH
		} else if gotH != wantH {
			t.Fatalf("workers=%d: result depends on worker count", workers)
		}
	}
}

// TestRecoverProgressMonotonic: every multi-sweep collection (the anti-cell
// sweep after the main one, the planner's batches) restarts the per-sweep
// pass counters internally; the event stream visible to callers must stay
// monotonic per chip (Pass never decreases, never exceeds Passes), and the
// run must end in exactly one solve-done event — for both collection
// strategies on a two-chip fleet. Planned runs must also carry planner
// solve progress (patterns used vs. planned).
func TestRecoverProgressMonotonic(t *testing.T) {
	cases := []struct {
		name    string
		mfr     ondie.Manufacturer
		anti    bool
		planner bool
	}{
		{name: "sweep", mfr: ondie.MfrB},
		{name: "sweep+anti", mfr: ondie.MfrC, anti: true},
		{name: "planner", mfr: ondie.MfrB, planner: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultRecoverOptions()
			opts.Collect = collectOpts()
			opts.UseAntiRows = tc.anti
			opts.UsePlanner = tc.planner

			var mu sync.Mutex
			lastPass := map[int]int{}
			sawPlanner := false
			violations, solveDone := 0, 0
			opts.Progress = func(ev core.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch ev.Stage {
				case core.StageCollect:
					if ev.Done {
						return
					}
					if ev.Pass < lastPass[ev.Chip] || ev.Pass > ev.Passes {
						violations++
					}
					lastPass[ev.Chip] = ev.Pass
				case core.StageSolve:
					if ev.PatternsUsed > 0 && ev.PatternsPlanned >= ev.PatternsUsed {
						sawPlanner = true
					}
					if ev.Done {
						solveDone++
					}
				}
			}
			chips := []core.Chip{mfrChip(tc.mfr, 210), mfrChip(tc.mfr, 211)}
			rep, err := New(2).Recover(context.Background(), chips, opts)
			if err != nil {
				t.Fatal(err)
			}
			if violations > 0 {
				t.Fatalf("%d non-monotonic collect pass events", violations)
			}
			if len(lastPass) != len(chips) {
				t.Fatalf("collect pass events from %d chips, want %d", len(lastPass), len(chips))
			}
			if solveDone != 1 {
				t.Fatalf("%d solve-done events, want exactly 1", solveDone)
			}
			if tc.planner && !sawPlanner {
				t.Fatal("no solve event carried planner pattern progress")
			}
			if !rep.Result.Unique {
				t.Fatalf("recovery not unique (%d candidates)", len(rep.Result.Codes))
			}
		})
	}
}
