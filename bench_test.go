// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, at quick scale; use cmd/figures for larger
// scales), plus micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"repro"
	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/einsim"
	"repro/internal/figures"
	"repro/internal/gf2"
	"repro/internal/noise"
	"repro/internal/ondie"
	"repro/internal/sat"
)

// benchFigure times one full regeneration of a registered table or figure.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	g, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Run(context.Background(), io.Discard, figures.ScaleQuick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)       { benchFigure(b, "table1") }
func BenchmarkTable2(b *testing.B)       { benchFigure(b, "table2") }
func BenchmarkFig1(b *testing.B)         { benchFigure(b, "fig1") }
func BenchmarkFig3(b *testing.B)         { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)         { benchFigure(b, "fig4") }
func BenchmarkFig5(b *testing.B)         { benchFigure(b, "fig5") }
func BenchmarkFig6(b *testing.B)         { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)         { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)         { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)         { benchFigure(b, "fig9") }
func BenchmarkRuntimeModel(b *testing.B) { benchFigure(b, "runtime") }

// BenchmarkCellLayout times the paper's §5.1.1 discovery experiment.
func BenchmarkCellLayout(b *testing.B) {
	chip := repro.SimulatedChip(repro.MfrC, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	}
}

// BenchmarkWordLayout times the §5.1.2 discovery experiment.
func BenchmarkWordLayout(b *testing.B) {
	chip := repro.SimulatedChip(repro.MfrA, 16, 1)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverEndToEnd times the complete BEER pipeline on a simulated
// chip (discovery + collection + SAT solve).
func BenchmarkRecoverEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := repro.SimulatedChip(repro.MfrB, 16, uint64(i))
		rep, err := repro.RecoverECCFunction(chip, repro.FastRecovery())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Result.Unique {
			b.Fatal("recovery not unique")
		}
	}
}

// BenchmarkParallelRecoverEndToEnd times the multi-chip pipeline: profile
// collection fans out across same-model chips on the parallel engine and the
// merged counts feed one solve (paper §6.3).
func BenchmarkParallelRecoverEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chips := repro.SimulatedChips(repro.MfrB, 16, 2, uint64(2*i))
		rep, err := repro.RecoverECCFunctionParallel(chips, repro.FastRecovery())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Result.Unique {
			b.Fatal("recovery not unique")
		}
	}
}

// BenchmarkSolve1Charged times BEER's SAT phase alone at several dataword
// lengths (the quantity behind Figure 6).
func BenchmarkSolve1Charged(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		k := k
		b.Run("k="+itoa(k), func(b *testing.B) {
			code := ecc.RandomHamming(k, rand.New(rand.NewPCG(1, uint64(k))))
			prof := core.ExactProfile(code, core.OneCharged(k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), prof, core.SolveOptions{ParityBits: code.ParityBits()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Eager vs. incremental solve pairs (PR 5) ---
// The pairs below land in BENCH_pr5.json: the incremental engine must be no
// slower than eager on the single-solve unique check and faster on the full
// uniqueness-check enumeration, because it defers most multi-CHARGED
// entries and keeps one solver (with its learned clauses) alive across the
// blocking-clause loop.

// benchProfile is the seed-configuration solve workload: a k=16 shortened
// code's exact {1,2}-CHARGED profile (136 entries).
func benchProfile() (*ecc.Code, *core.Profile) {
	code := ecc.RandomHamming(16, rand.New(rand.NewPCG(42, 16)))
	return code, core.ExactProfile(code, core.Set12.Patterns(16))
}

func benchSolve(b *testing.B, maxSol int, eager bool) {
	b.Helper()
	code, prof := benchProfile()
	opts := core.SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: maxSol, EagerEncode: eager}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(context.Background(), prof, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Unique {
			b.Fatalf("solve not unique (%d candidates)", len(res.Codes))
		}
	}
}

// BenchmarkSolveEager is the reference encoding (SolveOptions.EagerEncode):
// every profile entry encoded up front, then the standard unique-or-not
// check.
func BenchmarkSolveEager(b *testing.B) { benchSolve(b, 0, true) }

// BenchmarkSolveIncremental is the same check on core.Solve's default
// deferred encoding (persistent solver, multi-CHARGED entries encoded only
// when a candidate violates them).
func BenchmarkSolveIncremental(b *testing.B) { benchSolve(b, 0, false) }

// BenchmarkUniquenessLoopEager exhausts the whole model space (the
// uniqueness blocking-clause loop runs until UNSAT) with eager encoding.
func BenchmarkUniquenessLoopEager(b *testing.B) { benchSolve(b, -1, true) }

// BenchmarkUniquenessLoopIncremental is the same exhaustion on the deferred
// default.
func BenchmarkUniquenessLoopIncremental(b *testing.B) { benchSolve(b, -1, false) }

// BenchmarkRecoverFullSweep / BenchmarkRecoverPlanner are the end-to-end
// pair: exhaustive-sweep recovery vs. the adaptive planner, which stops
// collecting the moment the code is uniquely determined.
func BenchmarkRecoverFullSweep(b *testing.B) { benchRecoverPlanned(b, false) }

func BenchmarkRecoverPlanner(b *testing.B) { benchRecoverPlanned(b, true) }

func benchRecoverPlanned(b *testing.B, planned bool) {
	b.Helper()
	opts := []repro.Option{repro.WithFastWindows()}
	if planned {
		opts = append(opts, repro.WithPlanner())
	}
	pipe := repro.NewPipeline(opts...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := repro.SimulatedChip(repro.MfrB, 16, uint64(i))
		rep, err := pipe.Recover(context.Background(), chip)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Result.Unique {
			b.Fatal("recovery not unique")
		}
		if planned && rep.Plan.PatternsUsed >= rep.Plan.PatternsFull {
			b.Fatalf("planner used the full sweep (%d/%d)", rep.Plan.PatternsUsed, rep.Plan.PatternsFull)
		}
	}
}

func itoa(k int) string {
	if k == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = byte('0' + k%10)
		k /= 10
	}
	return string(buf[i:])
}

// BenchmarkExactProfile times the analytic miscorrection-profile oracle.
func BenchmarkExactProfile(b *testing.B) {
	code := ecc.RandomHamming(128, rand.New(rand.NewPCG(2, 2)))
	patterns := core.Set12.Patterns(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExactProfile(code, patterns)
	}
}

// BenchmarkEncodeDecode times the on-die ECC hot path for the paper's
// (136,128) shape.
func BenchmarkEncodeDecode(b *testing.B) {
	code := ecc.RandomHamming(128, rand.New(rand.NewPCG(3, 3)))
	d := gf2.NewVec(128)
	for i := 0; i < 128; i += 3 {
		d.Set(i, true)
	}
	cw := code.Encode(d)
	bad := cw.Clone()
	bad.Flip(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Encode(d)
		code.Decode(bad)
	}
}

// BenchmarkChipSweep times one full write/pause/read sweep of a simulated
// chip through the on-die ECC path.
func BenchmarkChipSweep(b *testing.B) {
	chip := ondie.MustNew(ondie.Config{
		Manufacturer: ondie.MfrA, DataBits: 128, Banks: 1, Rows: 64, RegionsPerRow: 8, Seed: 9,
	})
	data := make([]byte, chip.DataBytesPerRow())
	for i := range data {
		data[i] = 0xFF
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < chip.Rows(); r++ {
			chip.WriteRow(0, r, data)
		}
		chip.PauseRefresh(10 * time.Minute)
		for r := 0; r < chip.Rows(); r++ {
			chip.ReadRow(0, r)
		}
	}
}

// BenchmarkEinsimWords measures word-level simulation throughput.
func BenchmarkEinsimWords(b *testing.B) {
	code := ecc.SequentialHamming(128)
	rng := rand.New(rand.NewPCG(4, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := einsim.Run(einsim.Config{
			Code: code, Pattern: einsim.PatternAllOnes, Model: einsim.ModelUniform,
			RBER: 1e-3, Words: 1000,
		}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBEEPWord times profiling one 63-bit word with two passes.
func BenchmarkBEEPWord(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	code := ecc.RandomHamming(57, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word := &beep.SimWord{Code: code, ErrorCells: []int{3, 17, 40}, PErr: 1, Rng: rng}
		prof := beep.NewProfiler(code, beep.Options{Passes: 2, TrialsPerPattern: 1, WorstCaseNeighbors: true}, rng)
		prof.Run(context.Background(), word)
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationPatternSets compares SAT solve cost of 1-CHARGED vs
// {1,2}-CHARGED constraint sets for the same shortened code.
func BenchmarkAblationPatternSets(b *testing.B) {
	code := ecc.RandomHamming(16, rand.New(rand.NewPCG(6, 6)))
	for _, set := range []core.PatternSet{core.Set1, core.Set12} {
		set := set
		b.Run(set.String(), func(b *testing.B) {
			prof := core.ExactProfile(code, set.Patterns(16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), prof, core.SolveOptions{ParityBits: code.ParityBits()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationThreshold compares collection with and without transient
// noise, quantifying the threshold filter's cost-free robustness.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, tber := range []float64{0, 1e-6} {
		tber := tber
		name := "clean"
		if tber > 0 {
			name = "noisy"
		}
		b.Run(name, func(b *testing.B) {
			chip := ondie.MustNew(ondie.Config{
				Manufacturer: ondie.MfrA, DataBits: 16, Banks: 1, Rows: 64,
				RegionsPerRow: 8, Seed: 7, TransientBER: tber,
			})
			classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
			rows := core.TrueRows(classes)
			layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
			if err != nil {
				b.Fatal(err)
			}
			opts := core.CollectOptions{
				Windows: []time.Duration{20 * time.Minute, 40 * time.Minute},
				TempC:   80, Rounds: 1,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts, err := core.CollectCounts(context.Background(), chip, rows, layout, core.OneCharged(16), opts)
				if err != nil {
					b.Fatal(err)
				}
				counts.Threshold(1e-4, 2)
			}
		})
	}
}

// BenchmarkAblationCrafter compares BEEP's SAT pattern crafting (the paper's
// approach) against the linear-algebra reformulation of §7.3.
func BenchmarkAblationCrafter(b *testing.B) {
	for _, crafter := range []beep.Crafter{beep.CrafterSAT, beep.CrafterLinear} {
		crafter := crafter
		b.Run(crafter.String(), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(8, 8))
			code := ecc.RandomHamming(57, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				word := &beep.SimWord{Code: code, ErrorCells: []int{5, 22, 50}, PErr: 1, Rng: rng}
				prof := beep.NewProfiler(code, beep.Options{
					Passes: 1, TrialsPerPattern: 1, WorstCaseNeighbors: true, Crafter: crafter,
				}, rng)
				prof.Run(context.Background(), word)
			}
		})
	}
}

// --- Exact vs. noisy drop-k solve pair (PR 7) ---
// BenchmarkNoisyRecoverExact / BenchmarkNoisyRecoverPBEM75 are the
// confidence-weighted solver's bench-gate pair on the seed-configuration
// profile (k=16, {1,2}-CHARGED, 136 entries): the clean entry bounds the
// overhead of the guard-literal machinery against BenchmarkSolveIncremental
// on the same profile, and the PBEM_75 entry (HARP's 75%-observation
// dropout model) tracks the cost of the core-guided retraction loop under
// heavy corruption. Both run under the same drop budget: the clean solve
// never consumes it, while PBEM_75 corrupts far more entries than any
// budget absorbs, so that leg times retraction-to-honest-UNSAT (unbounded
// retraction on this profile runs for tens of seconds — too slow and too
// noisy for a -benchtime 1x gate).
func benchNoisyRecover(b *testing.B, model *noise.Model) {
	b.Helper()
	code, prof := benchProfile()
	if model != nil {
		prof, _ = model.Perturb(prof)
	}
	opts := core.SolveOptions{
		ParityBits: code.ParityBits(),
		Noisy:      &core.NoisyOptions{MaxDrop: 24},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveNoisy(context.Background(), prof, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Noise == nil {
			b.Fatal("noisy solve reported no noise info")
		}
		if model == nil && (!res.Unique || res.Noise.Confidence != 1.0) {
			b.Fatalf("clean profile solved with %d candidates, confidence %v",
				len(res.Codes), res.Noise.Confidence)
		}
		if model != nil && len(res.Codes) != 0 {
			b.Fatalf("PBEM_75 corruption under a %d-entry budget must report clean UNSAT, got %d candidates",
				opts.Noisy.MaxDrop, len(res.Codes))
		}
	}
}

func BenchmarkNoisyRecoverExact(b *testing.B) { benchNoisyRecover(b, nil) }

func BenchmarkNoisyRecoverPBEM75(b *testing.B) {
	m := noise.PBEM75
	m.Seed = 7
	benchNoisyRecover(b, &m)
}

// --- Single-engine vs. portfolio backend pair (PR 8) ---
// BenchmarkSolveBackendCDCL / BenchmarkSolveBackendPortfolio bound the
// portfolio's overhead on the seed-configuration profile (k=16,
// {1,2}-CHARGED): racing three differently-seeded in-process CDCL engines
// costs goroutine setup plus redundant work by the losers, and the gate
// keeps that within the ordinary regression threshold of the
// single-engine entry. External competitors are deliberately absent —
// process spawn costs would swamp the comparison and CI machines may not
// carry solver binaries.
func benchSolveBackend(b *testing.B, factory func() sat.Backend) {
	b.Helper()
	code, prof := benchProfile()
	opts := core.SolveOptions{ParityBits: code.ParityBits(), Backend: factory}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(context.Background(), prof, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Unique {
			b.Fatalf("solve not unique (%d candidates)", len(res.Codes))
		}
	}
}

func BenchmarkSolveBackendCDCL(b *testing.B) { benchSolveBackend(b, nil) }

func BenchmarkSolveBackendPortfolio(b *testing.B) {
	benchSolveBackend(b, func() sat.Backend {
		p, err := sat.DefaultPortfolio(3)
		if err != nil {
			panic(err)
		}
		return p
	})
}
