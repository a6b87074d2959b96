// Command beer runs the complete BEER methodology against a simulated DRAM
// chip with on-die ECC and prints the recovered ECC function, optionally
// checking it against the simulation's ground truth.
//
// Usage:
//
//	beer -mfr B -k 16 -verify
//	beer -mfr C -k 32 -patterns 1 -max-rows 128
//	beer -mfr B -k 16 -chips 4 -verify     # parallel collection across 4 same-model chips
//	beer -mfr B -k 16 -plan -verify        # adaptive planner: stop collecting when unique
//	beer -mfr B -k 16 -progress            # live per-stage status on stderr
//	beer -mfr B -k 16 -noise fp=0.002 -verify  # corrupt the profile, recover with drop-k + confidence
//	beer -mfr B -k 16 -noise fp=0.001,fn=0.01 -max-drop 16 -verify
//	beer -mfr B -k 16 -solver "kissat -q" -verify       # every solve shells out to kissat
//	beer -mfr B -k 16 -portfolio 3 -solver "cadical -q" # race 3 seeded CDCL engines vs. cadical
//
// -noise also accepts the HARP observation-model presets pbem25..pbem100
// (per-bit true-positive dropout of 75%..0%); the aggressive presets
// corrupt far more entries than the drop budget can absorb on a single
// profile, which is the point — they demonstrate the honest clean-UNSAT
// failure mode rather than a silent wrong answer.
//
//	beer -mfr B -k 16 -o code.json         # export the recovered function (einsim -code reads it)
//
// The -o export uses the shared code wire format (internal/store.CodeExport,
// the same JSON beerd's GET /codes serves), stamped with the miscorrection
// profile's canonical hash so the file can be matched against a BEER
// database entry.
//
// The run is cancellable: Ctrl-C stops collection at the next pass boundary
// and interrupts an in-flight SAT solve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/ondie"
	"repro/internal/store"
)

func main() {
	var (
		mfr      = flag.String("mfr", "A", "simulated manufacturer: A, B or C")
		k        = flag.Int("k", 16, "dataword length in bits (multiple of 8)")
		rows     = flag.Int("rows", 0, "chip rows (0 = automatic)")
		seed     = flag.Uint64("seed", 1, "chip seed")
		chips    = flag.Int("chips", 1, "number of same-model chips to collect from in parallel (paper sec. 6.3)")
		workers  = flag.Int("workers", 0, "worker-pool width (0 = all cores)")
		patterns = flag.String("patterns", "12", "pattern family: 1 (1-CHARGED) or 12 ({1,2}-CHARGED)")
		rounds   = flag.Int("rounds", 3, "collection rounds over the window sweep")
		maxWin   = flag.Int("max-window", 48, "largest refresh window in minutes")
		verify   = flag.Bool("verify", false, "compare against the simulated chip's ground truth")
		showProf = flag.Bool("profile", false, "print the thresholded miscorrection profile")
		useAnti  = flag.Bool("anti", false, "also collect inverted patterns from anti-cell rows (extension)")
		usePlan  = flag.Bool("plan", false, "adaptive pattern planner: solve while collecting, stop when unique (extension)")
		planMax  = flag.Int("plan-budget", 0, "planner pattern budget (0 = the full family; implies -plan)")
		progress = flag.Bool("progress", false, "stream live pipeline progress to stderr")
		outFile  = flag.String("o", "", "write the recovered function as a code-export JSON file")
		noiseArg = flag.String("noise", "", "perturb the observed profile with an observation-error model: pbem25|pbem50|pbem75|pbem100 or fp=X,fn=Y (extension)")
		noiseSd  = flag.Uint64("noise-seed", 1, "noise-model perturbation seed")
		maxDrop  = flag.Int("max-drop", -1, "drop-k budget for noise-tolerant solving (0 = none, negative = unlimited); implies the noisy solver when -noise is set")
		solver   = flag.String("solver", "", `external DIMACS solver argv, e.g. "kissat -q" or "beersat" (extension)`)
		solverTO = flag.Duration("solver-timeout", 2*time.Minute, "wall-clock budget per external solver invocation; a timed-out run is killed and discarded")
		portN    = flag.Int("portfolio", 0, "race N differently-seeded in-process CDCL engines (plus -solver, if set) per solve; first answer wins (extension)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	chipRows := *rows
	if chipRows == 0 {
		chipRows = 192
		if ondie.Manufacturer(*mfr) == ondie.MfrC {
			chipRows = 384
		}
	}
	if *chips < 1 {
		fatal(fmt.Errorf("-chips must be at least 1"))
	}
	// Same-model chips share the ECC function but have independent cells
	// (distinct seeds); the engine collects from all of them concurrently and
	// merges the observation counts before one solve.
	fleet := make([]repro.Chip, *chips)
	for i := range fleet {
		chip, err := ondie.New(ondie.Config{
			Manufacturer:  ondie.Manufacturer(*mfr),
			DataBits:      *k,
			Banks:         1,
			Rows:          chipRows,
			RegionsPerRow: 16,
			Seed:          *seed + uint64(i),
		})
		if err != nil {
			fatal(err)
		}
		fleet[i] = chip
	}
	chip := fleet[0].(*ondie.Chip)

	opts := []repro.Option{
		repro.WithWorkers(*workers),
		repro.WithWindowSweep(*maxWin),
		repro.WithRounds(*rounds),
	}
	switch *patterns {
	case "1":
		opts = append(opts, repro.WithPatternSet(repro.Set1))
	case "12":
		opts = append(opts, repro.WithPatternSet(repro.Set12))
	default:
		fatal(fmt.Errorf("unknown pattern family %q", *patterns))
	}
	if *useAnti {
		opts = append(opts, repro.WithAntiRows())
	}
	if *usePlan || *planMax > 0 {
		if *useAnti {
			fatal(fmt.Errorf("-plan is incompatible with -anti (the planner schedules true-cell patterns only)"))
		}
		opts = append(opts, repro.WithPlanOptions(repro.PlanOptions{MaxPatterns: *planMax}))
	}
	if *noiseArg != "" {
		if *usePlan || *planMax > 0 {
			fatal(fmt.Errorf("-noise is incompatible with -plan (the planner path does not perturb profiles)"))
		}
		model, err := parseNoise(*noiseArg, *noiseSd)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, repro.WithNoiseModel(model), repro.WithMaxDrop(*maxDrop))
	}
	if *progress {
		opts = append(opts, repro.WithProgress(printProgress))
	}
	if backend, err := solverBackendOption(*solver, *solverTO, *portN); err != nil {
		fatal(err)
	} else if backend != nil {
		opts = append(opts, backend)
	}
	pipe := repro.NewPipeline(opts...)

	fmt.Printf("BEER: %d manufacturer-%s chip(s), k=%d, %d rows, %s patterns\n",
		*chips, *mfr, *k, chipRows, pipe.RecoverOptions().PatternSet)
	fmt.Printf("analytical experiment runtime on real hardware: %v (refresh pauses dominate; chips run in parallel, paper sec. 6.3)\n\n",
		core.ExperimentRuntime(pipe.RecoverOptions().Collect))

	start := time.Now()
	rep, err := pipe.Recover(ctx, fleet...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "beer: interrupted, partial results discarded")
			os.Exit(130)
		}
		fatal(err)
	}
	trueRows := len(core.TrueRows(rep.CellClasses))
	fmt.Printf("step 1a (cell layout):   %d/%d rows are true-cells\n", trueRows, chipRows)
	fmt.Printf("step 1b (word layout):   %d words per %dB region, k=%d discovered\n",
		len(rep.Layout.Words), rep.Layout.RegionBytes, rep.K)
	fmt.Printf("step 2  (profile):       %d patterns observed over %d word-reads\n",
		len(rep.Counts.Entries), totalWords(rep.Counts))
	if *showProf {
		fmt.Println(rep.Profile)
	}
	fmt.Printf("step 3  (SAT solve):     determine %v, uniqueness %v, %d vars, %d clauses\n",
		rep.Result.DetermineTime.Round(time.Millisecond),
		rep.Result.UniquenessTime.Round(time.Millisecond),
		rep.Result.Vars, rep.Result.Clauses)
	fmt.Printf("        (solver materialized %d deferred pattern entries)\n", rep.Result.LazyRefinements)
	if rep.Plan != nil {
		fmt.Printf("planner:                 %d of %d patterns collected in %d batches (decided early: %v)\n",
			rep.Plan.PatternsUsed, rep.Plan.PatternsFull, rep.Plan.Batches, rep.Plan.DecidedEarly)
	}
	if ni := rep.Result.Noise; ni != nil {
		fmt.Printf("noise:                   retained %d/%d profile entries (dropped %v), confidence %.3f, support margin %.3f\n",
			ni.Retained, ni.Total, ni.DroppedEntries, ni.Confidence, ni.Margin)
	}
	fmt.Printf("simulation wall clock:   %v\n\n", time.Since(start).Round(time.Millisecond))

	switch {
	case len(rep.Result.Codes) == 0:
		fmt.Println("RESULT: no ECC function matches the profile (noisy data?)")
		os.Exit(1)
	case rep.Result.Unique:
		fmt.Println("RESULT: unique ECC function recovered; parity-check matrix H = [P | I]:")
	default:
		fmt.Printf("RESULT: %d candidate ECC functions (first shown); add 2-CHARGED patterns to disambiguate:\n",
			len(rep.Result.Codes))
	}
	fmt.Println(rep.Result.Codes[0].H())

	if *outFile != "" {
		exp := store.ExportCode(rep.Result.Codes[0])
		exp.ProfileHash = rep.Profile.Hash()
		unique := rep.Result.Unique
		exp.Unique = &unique
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		if err := store.WriteExport(f, exp); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (uid %s, profile %.12s...)\n", *outFile, exp.UID, exp.ProfileHash)
	}

	if *verify {
		truth := chip.GroundTruthCode()
		if rep.Result.Codes[0].EquivalentTo(truth) {
			fmt.Println("\nVERIFY: matches the chip's secret ECC function (up to parity relabeling)")
		} else {
			fmt.Println("\nVERIFY: MISMATCH against ground truth")
			os.Exit(1)
		}
	}
}

// printProgress renders one pipeline event as a live status line on stderr.
func printProgress(ev repro.ProgressEvent) {
	switch {
	case ev.Stage == repro.StageCollect && !ev.Done:
		fmt.Fprintf(os.Stderr, "[chip %d] collect: round %d/%d window %v (pass %d/%d)\n",
			ev.Chip, ev.Round, ev.Rounds, ev.Window, ev.Pass, ev.Passes)
	case ev.Stage == repro.StageSolve && !ev.Done:
		fmt.Fprintf(os.Stderr, "solve: %d candidate(s) so far\n", ev.Candidates)
	case ev.Done:
		fmt.Fprintf(os.Stderr, "[chip %d] %s: done\n", ev.Chip, ev.Stage)
	default:
		fmt.Fprintf(os.Stderr, "[chip %d] %s: started\n", ev.Chip, ev.Stage)
	}
}

// solverBackendOption turns the -solver/-solver-timeout/-portfolio flags
// into a pipeline option, or nil when neither flag asks for a non-default
// backend. Binaries are validated up front (repro.NewExternalBackend /
// NewPortfolioBackend) so a typo'd solver name fails at startup rather
// than silently degrading to the in-process engine mid-run.
func solverBackendOption(argv string, timeout time.Duration, portfolio int) (repro.Option, error) {
	var externals []repro.ExternalSolverConfig
	if argv != "" {
		fields := strings.Fields(argv)
		externals = append(externals, repro.ExternalSolverConfig{
			Argv:    fields,
			Timeout: timeout,
		})
	}
	switch {
	case portfolio > 0:
		factory, err := repro.NewPortfolioBackend(portfolio, externals...)
		if err != nil {
			return nil, fmt.Errorf("-portfolio: %w", err)
		}
		return repro.WithSolverBackend(factory), nil
	case len(externals) == 1:
		factory, err := repro.NewExternalBackend(externals[0])
		if err != nil {
			return nil, fmt.Errorf("-solver: %w", err)
		}
		return repro.WithSolverBackend(factory), nil
	}
	return nil, nil
}

// parseNoise turns the -noise argument into a model: a HARP PBEM preset
// name or explicit fp=X,fn=Y rates.
func parseNoise(s string, seed uint64) (repro.NoiseModel, error) {
	var m repro.NoiseModel
	switch s {
	case "pbem25":
		m = noise.PBEM25
	case "pbem50":
		m = noise.PBEM50
	case "pbem75":
		m = noise.PBEM75
	case "pbem100":
		m = noise.PBEM100
	default:
		for _, part := range strings.Split(s, ",") {
			key, val, ok := strings.Cut(part, "=")
			if !ok {
				return m, fmt.Errorf("bad -noise %q: want a pbemNN preset or fp=X,fn=Y", s)
			}
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return m, fmt.Errorf("bad -noise rate %q: %v", part, err)
			}
			switch key {
			case "fp":
				m.FP = rate
			case "fn":
				m.FN = rate
			default:
				return m, fmt.Errorf("bad -noise key %q: want fp or fn", key)
			}
		}
	}
	m.Seed = seed
	return m, m.Validate()
}

func totalWords(c *core.Counts) int64 {
	var n int64
	for _, e := range c.Entries {
		n += e.Words
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beer:", err)
	os.Exit(1)
}
