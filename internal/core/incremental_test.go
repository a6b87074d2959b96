package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/ondie"
	"repro/internal/sat"
)

// codeSet renders a candidate list as a canonical sorted set of exact
// parity-check matrices, for bit-identical comparison across engines.
func codeSet(t *testing.T, codes []*ecc.Code) []string {
	t.Helper()
	out := make([]string, 0, len(codes))
	for _, c := range codes {
		out = append(out, c.H().String())
	}
	sort.Strings(out)
	return out
}

func sameCodeSet(t *testing.T, a, b []*ecc.Code) bool {
	t.Helper()
	as, bs := codeSet(t, a), codeSet(t, b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// solveBoth runs Solve (deferred encoding) and the eager reference
// (EagerEncode) on one profile and fails unless they agree on the candidate
// set, Unique and Exhausted. It returns the deferred result.
func solveBoth(t *testing.T, name string, prof *Profile, opts SolveOptions) *Result {
	t.Helper()
	ctx := context.Background()
	deferred, err := Solve(ctx, prof, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	eagerOpts := opts
	eagerOpts.EagerEncode = true
	eager, err := Solve(ctx, prof, eagerOpts)
	if err != nil {
		t.Fatalf("%s (eager): %v", name, err)
	}
	if !sameCodeSet(t, eager.Codes, deferred.Codes) || eager.Exhausted != deferred.Exhausted || eager.Unique != deferred.Unique {
		t.Fatalf("%s: eager %d codes (unique=%v, exhausted=%v) vs deferred %d codes (unique=%v, exhausted=%v)",
			name, len(eager.Codes), eager.Unique, eager.Exhausted,
			len(deferred.Codes), deferred.Unique, deferred.Exhausted)
	}
	if eager.PatternsSkipped != 0 || eager.PatternsUsed != len(prof.Entries) {
		t.Fatalf("%s: eager encoding used %d and skipped %d of %d entries",
			name, eager.PatternsUsed, eager.PatternsSkipped, len(prof.Entries))
	}
	return deferred
}

// collectedProfile is the thresholded profile Recover would solve for a
// simulated chip (the repro.SimulatedChip configuration) under fast windows:
// a 4–48 minute sweep, three rounds, the §5.2 filter at its defaults.
func collectedProfile(t *testing.T, m ondie.Manufacturer, k int, seed uint64, anti bool) *Profile {
	t.Helper()
	rows := 192
	if m == ondie.MfrC {
		rows = 384
	}
	chip := ondie.MustNew(ondie.Config{Manufacturer: m, DataBits: k, Banks: 1, Rows: rows, RegionsPerRow: 16, Seed: seed})
	opts := DefaultRecoverOptions()
	for w := 4; w <= 48; w += 4 {
		opts.Collect.Windows = append(opts.Collect.Windows, time.Duration(w)*time.Minute)
	}
	opts.Collect.Rounds = 3
	opts.UseAntiRows = anti
	obs, err := Observe(context.Background(), chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.Counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
	if obs.AntiCounts != nil {
		prof = prof.Append(obs.AntiCounts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount))
	}
	return prof
}

// TestIncrementalMatchesEagerProperty is the golden cross-check: Solve
// (deferred CEGAR encoding on the persistent backend) must return
// bit-identical candidate sets, Unique and Exhausted to the eager reference
// encoding — on closed-form profiles in the unique case, the
// multi-candidate case (full enumeration of an underdetermined profile) and
// the UNSAT case, at the solve-exact benchmark's k=24, and on profiles
// collected from simulated chips and thresholded, including anti-cell
// entries and a k=32 full sweep.
func TestIncrementalMatchesEagerProperty(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10} {
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			code := ecc.RandomHamming(k, rng)
			opts := SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1}

			// Unique / fully determined: the {1,2}-CHARGED profile.
			full := ExactProfile(code, Set12.Patterns(k))
			res := solveBoth(t, fmt.Sprintf("k=%d seed=%d full profile", k, seed), full, opts)
			if !res.Unique {
				// Shortened-code Set12 profiles are unique per the paper;
				// random full-length ones always are.
				t.Logf("k=%d seed=%d: full profile not unique (%d candidates)", k, seed, len(res.Codes))
			}

			// Multi-candidate: the 1-CHARGED profile alone typically leaves
			// several consistent functions; enumerate them all.
			part := ExactProfile(code, Set1.Patterns(k))
			if res := solveBoth(t, fmt.Sprintf("k=%d seed=%d 1-CHARGED profile", k, seed), part, opts); len(res.Codes) == 0 {
				t.Fatalf("k=%d seed=%d: exact 1-CHARGED profile has no consistent code", k, seed)
			}

			// UNSAT: the same pattern asserted with two different
			// susceptibility sets is contradictory by construction.
			bad := &Profile{K: k}
			bad.Entries = append(bad.Entries, full.Entries...)
			flip := full.Entries[len(full.Entries)-1]
			flipped := flip.Possible.Clone()
			for b := 0; b < k; b++ {
				if !flip.Pattern.Has(b) {
					flipped.Flip(b)
					break
				}
			}
			bad.Entries = append(bad.Entries, Entry{Pattern: flip.Pattern, Possible: flipped})
			if res := solveBoth(t, fmt.Sprintf("k=%d seed=%d contradictory profile", k, seed), bad, opts); len(res.Codes) != 0 || !res.Exhausted {
				t.Fatalf("k=%d seed=%d contradictory profile: %d codes (exhausted=%v)", k, seed, len(res.Codes), res.Exhausted)
			}
		}
	}

	t.Run("exact-k24", func(t *testing.T) {
		for seed := uint64(0); seed < 3; seed++ {
			code := ecc.RandomHamming(24, rand.New(rand.NewPCG(seed, 24)))
			prof := ExactProfile(code, Set12.Patterns(24))
			res := solveBoth(t, fmt.Sprintf("seed=%d", seed), prof, SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1})
			if !res.Unique || !res.Codes[0].EquivalentTo(code) {
				t.Fatalf("seed=%d: k=24 {1,2}-CHARGED profile not uniquely recovered (%d candidates)", seed, len(res.Codes))
			}
		}
	})

	t.Run("collected-k16", func(t *testing.T) {
		for _, m := range []ondie.Manufacturer{ondie.MfrA, ondie.MfrB, ondie.MfrC} {
			for seed := uint64(1); seed <= 3; seed++ {
				prof := collectedProfile(t, m, 16, seed, false)
				solveBoth(t, fmt.Sprintf("mfr=%s seed=%d", m, seed), prof, SolveOptions{MaxSolutions: -1})
			}
		}
	})

	t.Run("collected-anti", func(t *testing.T) {
		for seed := uint64(1); seed <= 2; seed++ {
			prof := collectedProfile(t, ondie.MfrC, 16, seed, true)
			anti := 0
			for _, e := range prof.Entries {
				if e.Anti {
					anti++
				}
			}
			if anti == 0 {
				t.Fatalf("seed=%d: manufacturer C profile has no anti-cell entries", seed)
			}
			solveBoth(t, fmt.Sprintf("seed=%d", seed), prof, SolveOptions{MaxSolutions: -1})
		}
	})

	// The full {1,2}-CHARGED sweep of a k=32 simulated chip thresholds to a
	// contradictory profile (a known collection defect, not a solver one);
	// the two encodings must agree on it all the same.
	t.Run("collected-k32-full-sweep", func(t *testing.T) {
		if testing.Short() {
			t.Skip("eager k=32 solve is slow; skipped in -short mode")
		}
		prof := collectedProfile(t, ondie.MfrB, 32, 1, false)
		res := solveBoth(t, "mfr=B seed=1", prof, SolveOptions{})
		t.Logf("k=32 full sweep: %d candidates (exhausted=%v) from %d entries", len(res.Codes), res.Exhausted, len(prof.Entries))
	})
}

// TestIncrementalSkipsPatterns: on a profile the 1-CHARGED entries nearly
// determine, the deferred engine must leave most multi-CHARGED entries
// un-encoded while returning the same answer.
func TestIncrementalSkipsPatterns(t *testing.T) {
	k := 16
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(7, 7)))
	prof := ExactProfile(code, Set12.Patterns(k))
	res, err := Solve(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("expected unique recovery, got %d candidates (exhausted=%v)", len(res.Codes), res.Exhausted)
	}
	if res.PatternsSkipped == 0 {
		t.Fatal("incremental solve materialized every entry; expected deferred entries to be skipped")
	}
	if res.PatternsUsed+res.PatternsSkipped != len(prof.Entries) {
		t.Fatalf("used (%d) + skipped (%d) != fed (%d)", res.PatternsUsed, res.PatternsSkipped, len(prof.Entries))
	}
	if !res.Codes[0].EquivalentTo(code) {
		t.Fatal("recovered code does not match ground truth")
	}
}

// TestSolveSessionResume feeds a profile in two installments and checks the
// resumed enumeration (a) reuses the same backend — cumulative solver stats
// only grow — and (b) lands on the same candidate set as a one-shot solve.
func TestSolveSessionResume(t *testing.T) {
	ctx := context.Background()
	k := 8
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(3, 9)))
	prof := ExactProfile(code, Set12.Patterns(k))
	opts := SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1}

	ss, err := NewSolveSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(prof.Entries) / 2
	if err := ss.Feed(prof.Entries[:half]...); err != nil {
		t.Fatal(err)
	}
	first, err := ss.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	statsAfterFirst := ss.Stats()
	if err := ss.Feed(prof.Entries[half:]...); err != nil {
		t.Fatal(err)
	}
	second, err := ss.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Stats().Conflicts < statsAfterFirst.Conflicts || ss.Stats().Propagations < statsAfterFirst.Propagations {
		t.Fatal("resumed enumeration reset solver counters; backend was not reused")
	}
	if len(second.Codes) > len(first.Codes) && first.Exhausted {
		t.Fatalf("candidate set grew (%d -> %d) after constraints tightened on an exhausted session",
			len(first.Codes), len(second.Codes))
	}

	oneShot, err := Solve(ctx, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCodeSet(t, oneShot.Codes, second.Codes) {
		t.Fatalf("resumed session found %d codes, one-shot found %d", len(second.Codes), len(oneShot.Codes))
	}
	if !second.Unique || !oneShot.Unique {
		t.Fatalf("expected unique recovery (resumed unique=%v, one-shot unique=%v)", second.Unique, oneShot.Unique)
	}
}

// TestSolveDimacsBackend routes a full profile solve through the
// DIMACS-recording backend and checks both the answer and that a
// non-trivial CNF was captured for export.
func TestSolveDimacsBackend(t *testing.T) {
	k := 8
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(11, 4)))
	prof := ExactProfile(code, Set12.Patterns(k))
	var rec *sat.Dimacs
	opts := SolveOptions{
		ParityBits: code.ParityBits(),
		Backend: func() sat.Backend {
			rec = sat.NewDimacs(nil)
			return rec
		},
	}
	res, err := Solve(context.Background(), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique || !res.Codes[0].EquivalentTo(code) {
		t.Fatalf("DIMACS-backed solve: unique=%v", res.Unique)
	}
	if rec == nil || rec.NumClauses() == 0 {
		t.Fatal("recording backend captured no clauses")
	}
}
