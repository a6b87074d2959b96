package core_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ondie"
)

// oracleCollect fabricates noise-free counts for a batch of patterns from a
// known code's analytic miscorrection profile: every susceptible position
// observes errors on every word. It lets planner unit tests run the whole
// collect↔solve loop deterministically with no chip simulation.
func oracleCollect(code *ecc.Code) func(ctx context.Context, patterns []core.Pattern) (*core.Counts, error) {
	return func(_ context.Context, patterns []core.Pattern) (*core.Counts, error) {
		prof := core.ExactProfile(code, patterns)
		counts := &core.Counts{K: code.K()}
		for _, e := range prof.Entries {
			ce := core.CountEntry{Pattern: e.Pattern, Errors: make([]int64, code.K()), Words: 1000}
			for b := 0; b < code.K(); b++ {
				if e.Possible.Get(b) {
					ce.Errors[b] = 1000
				}
			}
			counts.Entries = append(counts.Entries, ce)
		}
		return counts, nil
	}
}

// TestPlannerStopsEarly drives the planner with the analytic oracle: it
// must recover the exact code uniquely while collecting strictly fewer
// patterns than the full {1,2}-CHARGED sweep, and the recovered code must
// be bit-identical to what the eager full-sweep solve finds.
func TestPlannerStopsEarly(t *testing.T) {
	k := 16
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(21, 42)))
	opts := core.DefaultRecoverOptions()

	planner, err := core.NewPlanner(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.Run(context.Background(), oracleCollect(code))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("planner result not unique: %d candidates (exhausted=%v)", len(res.Codes), res.Exhausted)
	}
	info := planner.Info()
	if info.PatternsFull != len(core.Set12.Patterns(k)) {
		t.Fatalf("PatternsFull = %d, want %d", info.PatternsFull, len(core.Set12.Patterns(k)))
	}
	if info.PatternsUsed >= info.PatternsFull {
		t.Fatalf("planner used %d of %d patterns; expected strictly fewer than the full sweep",
			info.PatternsUsed, info.PatternsFull)
	}
	if !info.DecidedEarly {
		t.Fatal("planner did not record an early decision")
	}

	// The eager reference encoding of the full sweep must land on the same
	// canonical code as the planner's deferred session.
	fullOpts := opts.Solve
	fullOpts.EagerEncode = true
	full, err := core.Solve(context.Background(), core.ExactProfile(code, core.Set12.Patterns(k)), fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Unique {
		t.Fatal("full-sweep solve not unique")
	}
	if res.Codes[0].H().String() != full.Codes[0].H().String() {
		t.Fatalf("planner code differs from full-sweep code:\n%v\nvs\n%v", res.Codes[0].H(), full.Codes[0].H())
	}
}

// TestPlannerBudget: with a pattern budget below what uniqueness needs,
// the planner must stop at the budget without deciding.
func TestPlannerBudget(t *testing.T) {
	k := 16
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(5, 5)))
	opts := core.DefaultRecoverOptions()
	opts.Plan.MaxPatterns = 4
	planner, err := core.NewPlanner(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planner.Run(context.Background(), oracleCollect(code)); err != nil {
		t.Fatal(err)
	}
	info := planner.Info()
	if info.PatternsUsed > 4 {
		t.Fatalf("planner used %d patterns, budget was 4", info.PatternsUsed)
	}
	if !planner.Done() {
		t.Fatal("planner not done after spending its budget")
	}
}

// TestPlannerAdaptiveBatches: once two candidates are known, the next
// batch must lead with a pattern the candidates disagree on — the
// solver-guided selection that makes the planner adaptive rather than a
// fixed-schedule prefix.
func TestPlannerAdaptiveBatches(t *testing.T) {
	k := 16
	// Pick a code the 1-CHARGED opening batch does NOT determine uniquely,
	// so the run actually exercises the candidate-disagreement steering.
	var code *ecc.Code
	for seed := uint64(1); seed < 64; seed++ {
		cand := ecc.RandomHamming(k, rand.New(rand.NewPCG(seed, 1)))
		res, err := core.Solve(context.Background(), core.ExactProfile(cand, core.Set1.Patterns(k)), core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Unique {
			code = cand
			break
		}
	}
	if code == nil {
		t.Skip("no k=16 seed with an ambiguous 1-CHARGED profile in range")
	}
	opts := core.DefaultRecoverOptions()
	opts.Plan.Batch = 2 // tiny increments force several adaptive rounds
	planner, err := core.NewPlanner(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	collect := oracleCollect(code)
	var batches [][]core.Pattern
	for !planner.Done() {
		batch := planner.NextBatch()
		if len(batch) == 0 {
			break
		}
		batches = append(batches, batch)
		counts, err := collect(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := planner.Feed(context.Background(), counts); err != nil {
			t.Fatal(err)
		}
	}
	if !planner.Info().DecidedEarly {
		t.Fatalf("adaptive run did not decide early (used %d/%d)",
			planner.Info().PatternsUsed, planner.Info().PatternsFull)
	}
	if len(batches) < 2 {
		t.Fatalf("expected multiple batches, got %d", len(batches))
	}
	// The final profile must still pin the exact code.
	if got := planner.Profile(); got.K != k {
		t.Fatalf("profile k=%d, want %d", got.K, k)
	}
}

// TestRecoverPlannedEndToEnd is the acceptance check on the seed
// configuration (manufacturer-B simulated chip, k=16): planned recovery
// must find the bit-identical unique code the exhaustive sweep finds,
// using strictly fewer patterns.
func TestRecoverPlannedEndToEnd(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = testWindows()
	opts.Collect.Rounds = 3

	chipFull := testChip(t, ondie.MfrB, 192, 0)
	full, err := core.Recover(context.Background(), chipFull, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Result.Unique {
		t.Fatalf("full sweep not unique (%d candidates)", len(full.Result.Codes))
	}

	opts.UsePlanner = true
	chipPlanned := testChip(t, ondie.MfrB, 192, 0)
	planned, err := core.Recover(context.Background(), chipPlanned, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !planned.Result.Unique {
		t.Fatalf("planned recovery not unique (%d candidates)", len(planned.Result.Codes))
	}
	if planned.Plan == nil {
		t.Fatal("planned recovery carries no PlanInfo")
	}
	if planned.Plan.PatternsUsed >= planned.Plan.PatternsFull {
		t.Fatalf("planner used %d of %d patterns; want strictly fewer than the full sweep",
			planned.Plan.PatternsUsed, planned.Plan.PatternsFull)
	}
	if got, want := planned.Result.Codes[0].H().String(), full.Result.Codes[0].H().String(); got != want {
		t.Fatalf("planned code differs from full-sweep code:\n%s\nvs\n%s", got, want)
	}
	if !planned.Result.Codes[0].EquivalentTo(chipPlanned.GroundTruthCode()) {
		t.Fatal("planned recovery does not match ground truth")
	}
	if len(planned.Profile.Entries) != planned.Plan.PatternsUsed {
		t.Fatalf("profile has %d entries, plan says %d patterns used",
			len(planned.Profile.Entries), planned.Plan.PatternsUsed)
	}
}

// TestRecoverPlannedRejectsAntiRows: the planner schedules true-cell
// patterns only; combining it with anti-cell collection must fail loudly.
func TestRecoverPlannedRejectsAntiRows(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.UsePlanner = true
	opts.UseAntiRows = true
	if _, err := core.Recover(context.Background(), testChip(t, ondie.MfrB, 64, 0), opts); err == nil {
		t.Fatal("planner + anti rows did not error")
	}
}
