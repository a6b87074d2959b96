package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/ecc"
)

// TestNoisyMatchesExactOnCleanProfile is the zero-noise differential: on
// uncorrupted profiles the noisy path must return bit-identical candidate
// sets to the exact incremental engine, drop nothing, and report
// confidence 1.0 on unique recoveries — across the unique, multi-candidate
// and UNSAT cases.
func TestNoisyMatchesExactOnCleanProfile(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{4, 6, 8} {
		for seed := uint64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			code := ecc.RandomHamming(k, rng)
			opts := SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1}
			noisyOpts := opts
			noisyOpts.Noisy = &NoisyOptions{MaxDrop: -1}

			// Unique / fully determined.
			full := ExactProfile(code, Set12.Patterns(k))
			exact, err := Solve(ctx, full, opts)
			if err != nil {
				t.Fatal(err)
			}
			noisy, err := SolveNoisy(ctx, full, noisyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCodeSet(t, exact.Codes, noisy.Codes) || exact.Exhausted != noisy.Exhausted || exact.Unique != noisy.Unique {
				t.Fatalf("k=%d seed=%d full profile: exact %d codes (unique=%v) vs noisy %d codes (unique=%v)",
					k, seed, len(exact.Codes), exact.Unique, len(noisy.Codes), noisy.Unique)
			}
			if noisy.Noise == nil {
				t.Fatal("noisy solve returned no Noise block")
			}
			if noisy.Noise.Dropped != 0 || len(noisy.Noise.DroppedEntries) != 0 {
				t.Fatalf("k=%d seed=%d: clean profile dropped %d entries", k, seed, noisy.Noise.Dropped)
			}
			if noisy.Unique && noisy.Noise.Confidence != 1.0 {
				t.Fatalf("k=%d seed=%d: unique clean recovery has confidence %v, want exactly 1.0",
					k, seed, noisy.Noise.Confidence)
			}
			if noisy.Noise.Margin != 1.0 {
				t.Fatalf("k=%d seed=%d: clean recovery margin %v, want 1.0 (uniform support, nothing dropped)",
					k, seed, noisy.Noise.Margin)
			}

			// Multi-candidate: 1-CHARGED profiles alone typically leave
			// several consistent functions; both engines must enumerate the
			// same set.
			part := ExactProfile(code, Set1.Patterns(k))
			exact1, err := Solve(ctx, part, opts)
			if err != nil {
				t.Fatal(err)
			}
			noisy1, err := SolveNoisy(ctx, part, noisyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCodeSet(t, exact1.Codes, noisy1.Codes) || exact1.Exhausted != noisy1.Exhausted {
				t.Fatalf("k=%d seed=%d 1-CHARGED: exact %d codes vs noisy %d codes",
					k, seed, len(exact1.Codes), len(noisy1.Codes))
			}
			if n := len(noisy1.Codes); n > 1 {
				want := 1.0 / float64(n)
				if noisy1.Noise.Confidence != want {
					t.Fatalf("k=%d seed=%d: %d-candidate confidence %v, want %v",
						k, seed, n, noisy1.Noise.Confidence, want)
				}
			}

			// UNSAT within budget 0: a contradictory profile with MaxDrop 0
			// must report clean UNSAT and drop nothing.
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
			strict := opts
			strict.Noisy = &NoisyOptions{MaxDrop: 0}
			noisyU, err := SolveNoisy(ctx, bad, strict)
			if err != nil {
				t.Fatal(err)
			}
			if len(noisyU.Codes) != 0 || !noisyU.Exhausted {
				t.Fatalf("k=%d seed=%d contradictory profile at MaxDrop=0: %d codes (exhausted=%v)",
					k, seed, len(noisyU.Codes), noisyU.Exhausted)
			}
			if noisyU.Noise.Dropped != 0 {
				t.Fatalf("k=%d seed=%d: MaxDrop=0 dropped %d entries", k, seed, noisyU.Noise.Dropped)
			}
		}
	}
}

// injectFalsePositives returns a copy of prof with one truly-impossible
// bit flipped to "possible" in each of n distinct entries, plus the
// corrupted entry indexes (ascending).
func injectFalsePositives(t *testing.T, prof *Profile, n int, rng *rand.Rand) (*Profile, []int) {
	t.Helper()
	out := &Profile{K: prof.K, Entries: make([]Entry, len(prof.Entries))}
	for i, e := range prof.Entries {
		out.Entries[i] = Entry{Pattern: e.Pattern, Possible: e.Possible.Clone(), Anti: e.Anti}
	}
	corrupted := map[int]bool{}
	for len(corrupted) < n {
		i := rng.IntN(len(out.Entries))
		if corrupted[i] {
			continue
		}
		e := out.Entries[i]
		flippable := make([]int, 0, prof.K)
		for b := 0; b < prof.K; b++ {
			if !e.Pattern.Has(b) && !e.Possible.Get(b) {
				flippable = append(flippable, b)
			}
		}
		if len(flippable) == 0 {
			continue
		}
		e.Possible.Set(flippable[rng.IntN(len(flippable))], true)
		corrupted[i] = true
	}
	idx := make([]int, 0, n)
	for i := range out.Entries {
		if corrupted[i] {
			idx = append(idx, i)
		}
	}
	return out, idx
}

// TestNoisyDropKRecoversFromFalsePositives is the acceptance property on
// the paper's full-length Hamming(71,64) configuration: inject PBEM-style
// false positives into the exact 1-CHARGED profile, score the corrupted
// entries with low observation support, and require the drop-k relaxation
// to retract exactly the corrupted entries (never a true one), recover the
// ground-truth code, and report the dropped count and support margin.
func TestNoisyDropKRecoversFromFalsePositives(t *testing.T) {
	ctx := context.Background()
	const k = 64
	rng := rand.New(rand.NewPCG(71, 64))
	code := ecc.RandomHamming(k, rng)
	if n := k + code.ParityBits(); n != 71 {
		t.Fatalf("expected a Hamming(71,64) code, got n=%d", n)
	}
	prof := ExactProfile(code, Set1.Patterns(k))

	const fps = 3
	corruptedProf, corrupted := injectFalsePositives(t, prof, fps, rng)
	// Observation support as SupportFromCounts would score it: the
	// injected bits barely cleared the threshold, so their entries rank
	// far below the clean ones.
	support := make([]float64, len(corruptedProf.Entries))
	for i := range support {
		support[i] = 1.0
	}
	for _, i := range corrupted {
		support[i] = 0.3
	}

	opts := SolveOptions{
		ParityBits:   code.ParityBits(),
		MaxSolutions: -1, // dropping entries under-determines the code; enumerate all survivors
		Noisy:        &NoisyOptions{MaxDrop: 2 * fps, Support: support},
	}
	res, err := SolveNoisy(ctx, corruptedProf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Codes) == 0 {
		t.Fatalf("no code recovered (dropped %d of %d allowed)", res.Noise.Dropped, 2*fps)
	}
	found := false
	for _, c := range res.Codes {
		if c.EquivalentTo(code) {
			found = true
		}
	}
	if !found {
		t.Fatalf("ground-truth code not among the %d recovered candidates", len(res.Codes))
	}
	info := res.Noise
	if info == nil {
		t.Fatal("noisy solve returned no Noise block")
	}
	if info.Dropped == 0 {
		t.Fatal("false positives present but nothing was dropped")
	}
	isCorrupted := map[int]bool{}
	for _, i := range corrupted {
		isCorrupted[i] = true
	}
	for _, i := range info.DroppedEntries {
		if !isCorrupted[i] {
			t.Fatalf("dropped true entry %d (corrupted set %v, dropped %v)", i, corrupted, info.DroppedEntries)
		}
	}
	if info.Retained+info.Dropped != info.Total || info.Total != len(corruptedProf.Entries) {
		t.Fatalf("inconsistent NoiseInfo: %+v", info)
	}
	if info.Confidence <= 0 || info.Confidence >= 1 {
		t.Fatalf("confidence %v, want in (0,1) after drops", info.Confidence)
	}
	// Margin: retained entries all have support 1.0, dropped ones 0.3.
	if info.Margin != 1.0-0.3 {
		t.Fatalf("margin %v, want 0.7", info.Margin)
	}
}

// TestNoisyNeverDropsAtZeroBudget: with MaxDrop=0 a corrupted profile must
// yield clean UNSAT — zero codes, zero drops — never a relaxed answer.
func TestNoisyNeverDropsAtZeroBudget(t *testing.T) {
	ctx := context.Background()
	const k = 16
	rng := rand.New(rand.NewPCG(2, 9))
	code := ecc.RandomHamming(k, rng)
	prof := ExactProfile(code, Set1.Patterns(k))
	corruptedProf, _ := injectFalsePositives(t, prof, 2, rng)

	res, err := SolveNoisy(ctx, corruptedProf, SolveOptions{
		ParityBits: code.ParityBits(),
		Noisy:      &NoisyOptions{MaxDrop: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Codes) != 0 {
		t.Fatalf("MaxDrop=0 on a corrupted profile returned %d codes, want clean UNSAT", len(res.Codes))
	}
	if res.Noise.Dropped != 0 || len(res.Noise.DroppedEntries) != 0 {
		t.Fatalf("MaxDrop=0 dropped entries: %+v", res.Noise)
	}
	if res.Noise.Confidence != 0 {
		t.Fatalf("confidence %v on a failed recovery, want 0", res.Noise.Confidence)
	}
}
