package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "recover", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "discover", Start: 0, End: 30, IO: 20},
		{ID: 2, Parent: 0, Name: "collect", Start: 30, End: 90, IO: 50},
	}}
	self := tr.selfTimes()
	want := []time.Duration{10, 10, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, self[i], want[i])
		}
	}
}

func TestSpanNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, "job")
	child := tr.begin(7, "http.submit")
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("spans = %+v, want http.submit nested under job", tr.spans)
	}
	merged := tr.reindex(5)
	if merged[1].ID != 6 || merged[1].Parent != 5 || merged[0].Parent != -1 {
		t.Errorf("reindex(5) = %+v", merged)
	}
}

// fastCollect is a short sweep that keeps the chip-level tests quick.
func fastCollect() core.RecoverOptions {
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = []time.Duration{8 * time.Minute, 24 * time.Minute, 48 * time.Minute}
	opts.Collect.Rounds = 1
	return opts
}

func collectWith(t *testing.T, chip core.Chip, opts core.RecoverOptions) *core.Counts {
	t.Helper()
	_, rows, layout, err := core.DiscoverChip(chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := core.CollectCounts(context.Background(), chip, rows, layout, opts.PatternSet.Patterns(layout.K()), opts.Collect)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestTracedChipGivesIdenticalCounts(t *testing.T) {
	opts := fastCollect()
	bare := collectWith(t, repro.SimulatedChip(repro.MfrB, 8, 11), opts)
	tr := newTracer()
	wrapped := &tracedChip{Chip: repro.SimulatedChip(repro.MfrB, 8, 11), t: tr}
	traced := collectWith(t, wrapped, opts)
	if !bytes.Equal(countsBytes(bare), countsBytes(traced)) {
		t.Fatal("counts through the traced chip differ from the bare chip's")
	}
	if tr.readRows == 0 || tr.writeRows == 0 {
		t.Errorf("traced chip counted %d reads and %d writes, want both > 0", tr.readRows, tr.writeRows)
	}
	if wrapped.LayoutKey() != repro.SimulatedChip(repro.MfrB, 8, 11).LayoutKey() {
		t.Error("traced chip does not forward the layout key")
	}
}

func TestTracedRecoverMatchesPipeline(t *testing.T) {
	pipe := repro.NewPipeline(repro.WithFastWindows())
	ctx := context.Background()
	rep, err := pipe.Recover(ctx, repro.SimulatedChip(repro.MfrA, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := tracedRecover(ctx, newTracer(), 0, repro.SimulatedChip(repro.MfrA, 8, 5), pipe.RecoverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecovery(rep, lay) {
		t.Fatal("layer-by-layer recovery differs from Pipeline.Recover")
	}
	if o := classify(lay.result, nil, repro.GroundTruth(repro.SimulatedChip(repro.MfrA, 8, 5))); o != outUniqueMatch {
		t.Errorf("traced recovery outcome = %s, want unique_match", outcomeNames[o])
	}
}
