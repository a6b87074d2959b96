package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ondie"
	"repro/internal/parallel"
)

func cancelTestChip(t *testing.T) *ondie.Chip {
	t.Helper()
	return ondie.MustNew(ondie.Config{
		Manufacturer:  ondie.MfrB,
		DataBits:      16,
		Banks:         1,
		Rows:          192,
		RegionsPerRow: 16,
		Seed:          77,
	})
}

func fastOpts() core.RecoverOptions {
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = nil
	for m := 4; m <= 48; m += 4 {
		opts.Collect.Windows = append(opts.Collect.Windows, time.Duration(m)*time.Minute)
	}
	opts.Collect.Rounds = 3
	return opts
}

// TestCollectCountsPreCancelled: a cancelled context aborts collection at
// the very first pass boundary.
func TestCollectCountsPreCancelled(t *testing.T) {
	chip := cancelTestChip(t)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = core.CollectCounts(ctx, chip, rows, layout, core.OneCharged(layout.K()), fastOpts().Collect)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CollectCounts returned %v, want context.Canceled", err)
	}
}

// TestRecoverProgressEvents checks the event stream's shape on a successful
// run: stages in order, every stage completed, collection passes counted
// exactly, and the solve stage reporting the final candidate count.
func TestRecoverProgressEvents(t *testing.T) {
	opts := fastOpts()
	var events []core.Event
	opts.Progress = func(ev core.Event) { events = append(events, ev) }
	rep, err := parallel.New(1).Recover(context.Background(), []core.Chip{cancelTestChip(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Unique {
		t.Fatalf("expected unique recovery, got %d candidates", len(rep.Result.Codes))
	}

	wantPasses := opts.Collect.Rounds * len(opts.Collect.Windows)
	var gotPasses, candidates int
	stageDone := map[core.Stage]bool{}
	lastStage := core.StageDiscover
	for i, ev := range events {
		if ev.Stage < lastStage {
			t.Fatalf("event %d: stage %v after %v", i, ev.Stage, lastStage)
		}
		lastStage = ev.Stage
		if ev.Done {
			stageDone[ev.Stage] = true
			continue
		}
		switch ev.Stage {
		case core.StageCollect:
			gotPasses++
			if ev.Pass != gotPasses || ev.Passes != wantPasses {
				t.Fatalf("event %d: pass %d/%d, want %d/%d", i, ev.Pass, ev.Passes, gotPasses, wantPasses)
			}
		case core.StageSolve:
			candidates = ev.Candidates
		}
	}
	if gotPasses != wantPasses {
		t.Fatalf("saw %d collection passes, want %d", gotPasses, wantPasses)
	}
	if candidates != len(rep.Result.Codes) {
		t.Fatalf("solve events reported %d candidates, result has %d", candidates, len(rep.Result.Codes))
	}
	for _, stage := range []core.Stage{core.StageDiscover, core.StageCollect, core.StageSolve} {
		if !stageDone[stage] {
			t.Fatalf("stage %v never reported Done", stage)
		}
	}
}
