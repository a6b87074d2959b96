package parallel

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ondie"
)

// mfrChip builds a k=16 simulated chip in the repro.SimulatedChip
// configuration: manufacturer C chips get twice the rows, since half of
// them are anti-cell rows.
func mfrChip(m ondie.Manufacturer, seed uint64) *ondie.Chip {
	rows := 192
	if m == ondie.MfrC {
		rows = 384
	}
	return ondie.MustNew(ondie.Config{
		Manufacturer:  m,
		DataBits:      16,
		Banks:         1,
		Rows:          rows,
		RegionsPerRow: 16,
		Seed:          seed,
	})
}

// recoverByHand is the reference recovery: the core stages called one
// after another, one chip at a time — DiscoverChip, CollectCounts over the
// pattern set, then (with UseAntiRows) CollectCounts over the anti-cell
// rows with inverted 1-CHARGED patterns — followed by a chip-order merge,
// Threshold (Append the anti profile) and SolveStage. For one chip this is
// the composition the benchmark's traced recovery measures layer by layer.
func recoverByHand(t *testing.T, chips []core.Chip, opts core.RecoverOptions) (*core.Counts, *core.Profile, *core.Result) {
	t.Helper()
	ctx := context.Background()
	var counts, anti *core.Counts
	merge := func(into **core.Counts, c *core.Counts) {
		if *into == nil {
			*into = c
		} else if err := (*into).Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, chip := range chips {
		classes, rows, layout, err := core.DiscoverChip(chip, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.CollectCounts(ctx, chip, rows, layout, opts.PatternSet.Patterns(layout.K()), opts.Collect)
		if err != nil {
			t.Fatal(err)
		}
		merge(&counts, c)
		if antiRows := core.AntiRows(classes); opts.UseAntiRows && len(antiRows) > 0 {
			antiOpts := opts.Collect
			antiOpts.Invert = true
			c, err := core.CollectCounts(ctx, chip, antiRows, layout, core.OneCharged(layout.K()), antiOpts)
			if err != nil {
				t.Fatal(err)
			}
			merge(&anti, c)
		}
	}
	profile := counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
	if anti != nil {
		profile = profile.Append(anti.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount))
	}
	res, err := core.SolveStage(ctx, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	return counts, profile, res
}

// TestRecoverMatchesHandComposedStages is the differential check on the one
// recover driver: Engine.Recover must give byte-identical counts, the same
// profile hash and the same code as the hand-composed reference, for each
// manufacturer, with anti-cell rows, and for a two-chip fleet at one and two
// workers.
func TestRecoverMatchesHandComposedStages(t *testing.T) {
	cases := []struct {
		mfr     ondie.Manufacturer
		anti    bool
		chips   int
		workers int
	}{
		{mfr: ondie.MfrA, chips: 1, workers: 1},
		{mfr: ondie.MfrB, chips: 1, workers: 1},
		{mfr: ondie.MfrC, chips: 1, workers: 1},
		{mfr: ondie.MfrC, anti: true, chips: 1, workers: 1},
		{mfr: ondie.MfrB, chips: 2, workers: 1},
		{mfr: ondie.MfrB, chips: 2, workers: 2},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/anti=%t/chips=%d/workers=%d", tc.mfr, tc.anti, tc.chips, tc.workers)
		t.Run(name, func(t *testing.T) {
			opts := core.DefaultRecoverOptions()
			opts.Collect = collectOpts()
			opts.Collect.Rounds = 3
			opts.UseAntiRows = tc.anti
			fleet := func() []core.Chip {
				chips := make([]core.Chip, tc.chips)
				for i := range chips {
					chips[i] = mfrChip(tc.mfr, uint64(40+i))
				}
				return chips
			}

			rep, err := New(tc.workers).Recover(context.Background(), fleet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			counts, profile, res := recoverByHand(t, fleet(), opts)
			if !reflect.DeepEqual(rep.Counts, counts) {
				t.Fatal("Recover's counts differ from the hand-composed stages'")
			}
			if got, want := rep.Profile.Hash(), profile.Hash(); got != want {
				t.Fatalf("profile hash %s, want %s", got, want)
			}
			if tc.anti && len(rep.Profile.Entries) == len(rep.Counts.Entries) {
				t.Fatal("anti-cell recovery added no anti entries")
			}
			if len(rep.Result.Codes) == 0 || len(rep.Result.Codes) != len(res.Codes) {
				t.Fatalf("Recover found %d codes, hand-composed stages %d", len(rep.Result.Codes), len(res.Codes))
			}
			if got, want := rep.Result.Codes[0].H().String(), res.Codes[0].H().String(); got != want {
				t.Fatalf("recovered code differs:\n%s\nvs\n%s", got, want)
			}
			if !rep.Result.Unique || !rep.Result.Codes[0].EquivalentTo(mfrChip(tc.mfr, 40).GroundTruthCode()) {
				t.Fatal("recovery does not match ground truth")
			}
		})
	}
}
