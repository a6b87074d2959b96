package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/ecc"
	"repro/internal/einsim"
	"repro/internal/obs"
	"repro/internal/store"
)

// JobSpec is the submission body for POST /api/v1/jobs. Type selects the
// pipeline; the remaining fields configure it (zero values take the
// documented defaults). Validation failures are 400s.
type JobSpec struct {
	// Type is "recover" (BEER against simulated chips) or "simulate"
	// (EINSim-style Monte-Carlo).
	Type string `json:"type"`

	// Recover fields.
	Manufacturer     string `json:"manufacturer,omitempty"`       // A, B or C (default B)
	K                int    `json:"k,omitempty"`                  // dataword bits, multiple of 8 (default 16)
	Chips            int    `json:"chips,omitempty"`              // same-model chips collected in parallel (default 1)
	Seed             uint64 `json:"seed,omitempty"`               // chip seed (default 1)
	Patterns         string `json:"patterns,omitempty"`           // "1" or "12" (default "12")
	Rounds           int    `json:"rounds,omitempty"`             // window-sweep rounds (default 3)
	MaxWindowMinutes int    `json:"max_window_minutes,omitempty"` // largest refresh window (default 48)
	UseAntiRows      bool   `json:"use_anti_rows,omitempty"`
	// DeprecatedLazySolver is the retired use_lazy_solver switch, accepted
	// and ignored so existing clients' bodies still decode: every exact
	// solve now defers multi-CHARGED entries.
	//
	// Deprecated: a no-op; it does not affect the job or its dedupe key.
	DeprecatedLazySolver bool `json:"use_lazy_solver,omitempty"`
	// Plan enables the adaptive pattern planner: collection proceeds in
	// solver-guided batches on a persistent incremental SAT session and
	// stops as soon as the code is uniquely determined. The result then
	// reports patterns_used vs. patterns_full. Incompatible with
	// use_anti_rows.
	Plan bool `json:"plan,omitempty"`
	// Verify compares the recovered function against the simulated chip's
	// ground truth and reports the outcome in the result.
	Verify bool `json:"verify,omitempty"`
	// NoiseFP and NoiseFN perturb the collected miscorrection profile with a
	// per-bit Bernoulli observation model before solving (HARP-style false
	// positives / true-positive dropout) and engage the confidence-weighted
	// drop-k solver; the result then carries a "noise" block. MaxDrop caps
	// how many profile entries the solver may retract (absent = unlimited,
	// explicit 0 = none); setting max_drop alone engages the robust solver
	// without perturbation — what a profile collected from genuinely noisy
	// hardware needs. Incompatible with plan.
	NoiseFP   float64 `json:"noise_fp,omitempty"`
	NoiseFN   float64 `json:"noise_fn,omitempty"`
	NoiseSeed uint64  `json:"noise_seed,omitempty"`
	MaxDrop   *int    `json:"max_drop,omitempty"`

	// Simulate fields.
	Words      int     `json:"words,omitempty"`       // Monte-Carlo words (default 100000)
	RBER       float64 `json:"rber,omitempty"`        // raw bit error rate (default 1e-4)
	CodeFamily string  `json:"code_family,omitempty"` // sequential, bitreversed or random (default sequential)
	Pattern    string  `json:"pattern,omitempty"`     // 0xFF, 0x00 or RANDOM (default 0xFF)
	Model      string  `json:"model,omitempty"`       // uniform or retention (default uniform)
}

// noisy reports whether the spec engages the drop-k robust solver.
func (spec JobSpec) noisy() bool {
	return spec.NoiseFP > 0 || spec.NoiseFN > 0 || spec.MaxDrop != nil
}

// chipCount returns how many chips a job's progress tracks.
func (spec JobSpec) chipCount() int {
	if spec.Type == "recover" {
		if spec.Chips > 0 {
			return spec.Chips
		}
		return 1
	}
	return 0
}

// Normalized returns a copy of the spec with every defaulted field filled
// in — the single place the documented defaults live. buildRunner validates
// the normalized form, and the cluster router derives its consistent-hash
// routing key from it, so two submissions that differ only in spelled-out
// defaults are the same job everywhere.
func (spec JobSpec) Normalized() JobSpec {
	out := spec
	switch out.Type {
	case "recover":
		out.Manufacturer = strings.ToUpper(out.Manufacturer)
		if out.Manufacturer == "" {
			out.Manufacturer = string(repro.MfrB)
		}
		if out.K == 0 {
			out.K = 16
		}
		if out.Chips == 0 {
			out.Chips = 1
		}
		if out.Seed == 0 {
			out.Seed = 1
		}
		if out.Patterns == "" {
			out.Patterns = "12"
		}
		if out.Rounds == 0 {
			out.Rounds = 3
		}
		if out.MaxWindowMinutes == 0 {
			out.MaxWindowMinutes = 48
		}
		if out.NoiseFP > 0 || out.NoiseFN > 0 {
			if out.NoiseSeed == 0 {
				out.NoiseSeed = 1
			}
			if out.MaxDrop == nil {
				unlimited := -1
				out.MaxDrop = &unlimited
			}
		}
	case "simulate":
		if out.Words == 0 {
			out.Words = 100000
		}
		if out.RBER == 0 {
			out.RBER = 1e-4
		}
		if out.K == 0 {
			out.K = 32
		}
		if out.Seed == 0 {
			out.Seed = 1
		}
		if out.CodeFamily == "" {
			out.CodeFamily = "sequential"
		}
		if out.Pattern == "" {
			out.Pattern = "0xFF"
		}
		if out.Model == "" {
			out.Model = "uniform"
		}
	}
	return out
}

// Validate reports whether the spec would be accepted by a submission —
// the same checks buildRunner performs, exported for executors that
// validate without running locally (the cluster coordinator).
func (spec JobSpec) Validate() error {
	_, err := buildRunner(spec)
	return err
}

// Service guardrails: beerd is a multi-tenant front end for a shared
// engine, so one job may not monopolize it with an unbounded spec.
const (
	maxK     = 64
	maxChips = 32
	maxWords = 10_000_000
)

// runner executes one validated job. It reports progress through fn,
// consults cache (the server's content-addressed solver cache; may be nil)
// before any SAT search, and returns the job's result.
type runner func(ctx context.Context, engine *repro.Engine, cache repro.SolveCache, fn repro.ProgressFunc) (*JobResult, error)

// buildRunner validates a spec and compiles it into a runner. All
// validation happens here, at submission time, so a 202 means the job is
// well-formed. extraOpts (the server's WithSolverOptions) are appended to
// recovery pipelines after the spec-derived options, so deployment-level
// backend selection wins.
func buildRunner(spec JobSpec, extraOpts ...repro.Option) (runner, error) {
	switch spec.Type {
	case "recover":
		return buildRecoverRunner(spec, extraOpts)
	case "simulate":
		return buildSimulateRunner(spec)
	case "":
		return nil, fmt.Errorf("missing job type (want \"recover\" or \"simulate\")")
	default:
		return nil, fmt.Errorf("unknown job type %q (want \"recover\" or \"simulate\")", spec.Type)
	}
}

func buildRecoverRunner(spec JobSpec, extraOpts []repro.Option) (runner, error) {
	spec = spec.Normalized()
	mfr := repro.Manufacturer(spec.Manufacturer)
	if mfr != repro.MfrA && mfr != repro.MfrB && mfr != repro.MfrC {
		return nil, fmt.Errorf("unknown manufacturer %q (want A, B or C)", spec.Manufacturer)
	}
	k := spec.K
	if k < 8 || k%8 != 0 || k > maxK {
		return nil, fmt.Errorf("k=%d must be a positive multiple of 8 up to %d", spec.K, maxK)
	}
	chips := spec.Chips
	if chips < 1 || chips > maxChips {
		return nil, fmt.Errorf("chips=%d out of range [1, %d]", spec.Chips, maxChips)
	}
	seed := spec.Seed
	patternSet := repro.Set12
	switch spec.Patterns {
	case "12":
	case "1":
		patternSet = repro.Set1
	default:
		return nil, fmt.Errorf("unknown pattern family %q (want \"1\" or \"12\")", spec.Patterns)
	}
	rounds := spec.Rounds
	if rounds < 1 || rounds > 16 {
		return nil, fmt.Errorf("rounds=%d out of range [1, 16]", spec.Rounds)
	}
	maxWin := spec.MaxWindowMinutes
	if maxWin < 4 || maxWin > 240 {
		return nil, fmt.Errorf("max_window_minutes=%d out of range [4, 240]", spec.MaxWindowMinutes)
	}
	if spec.Plan && spec.UseAntiRows {
		return nil, fmt.Errorf("plan is incompatible with use_anti_rows (the planner schedules true-cell patterns only)")
	}
	if spec.NoiseFP < 0 || spec.NoiseFP > 1 || spec.NoiseFN < 0 || spec.NoiseFN > 1 {
		return nil, fmt.Errorf("noise_fp=%g / noise_fn=%g out of [0, 1]", spec.NoiseFP, spec.NoiseFN)
	}
	noisy := spec.noisy()
	if noisy && spec.Plan {
		return nil, fmt.Errorf("plan is incompatible with noise_fp/noise_fn/max_drop (the planner's incremental session does not perturb or retract profile entries)")
	}

	return func(ctx context.Context, engine *repro.Engine, cache repro.SolveCache, fn repro.ProgressFunc) (*JobResult, error) {
		opts := []repro.Option{
			repro.WithEngine(engine),
			repro.WithPatternSet(patternSet),
			repro.WithWindowSweep(maxWin),
			repro.WithRounds(rounds),
			repro.WithProgress(fn),
		}
		if cache != nil {
			opts = append(opts, repro.WithSolveCache(cache))
		}
		if spec.UseAntiRows {
			opts = append(opts, repro.WithAntiRows())
		}
		if spec.Plan {
			opts = append(opts, repro.WithPlanner())
		}
		if noisy {
			if spec.NoiseFP > 0 || spec.NoiseFN > 0 {
				opts = append(opts, repro.WithNoiseModel(repro.NoiseModel{
					FP:   spec.NoiseFP,
					FN:   spec.NoiseFN,
					Seed: spec.NoiseSeed,
				}))
			}
			opts = append(opts, repro.WithMaxDrop(*spec.MaxDrop))
		}
		opts = append(opts, extraOpts...)
		pipe := repro.NewPipeline(opts...)

		fleet := repro.SimulatedChips(mfr, k, chips, seed)
		report, err := pipe.Recover(ctx, fleet...)
		if err != nil {
			return nil, err
		}
		res := &JobResult{Recover: &RecoverResult{
			K:           report.K,
			ProfileHash: report.Profile.Hash(),
			Unique:      report.Result.Unique,
			Candidates:  len(report.Result.Codes),
			CollectMS:   report.CollectTime.Seconds() * 1e3,
			SolveMS:     report.SolveTime.Seconds() * 1e3,
			Solver: &SolverStats{
				Conflicts:       report.Result.Stats.Conflicts,
				Propagations:    report.Result.Stats.Propagations,
				Learned:         report.Result.Stats.Learnt,
				Restarts:        report.Result.Stats.Restarts,
				PatternsSkipped: report.Result.PatternsSkipped,
				Races:           report.Result.Stats.Races,
				Competitors:     competitorReports(report.Result.Stats.Competitors),
			},
		}}
		if report.Plan != nil {
			res.Recover.PatternsUsed = report.Plan.PatternsUsed
			res.Recover.PatternsFull = report.Plan.PatternsFull
		}
		if ni := report.Result.Noise; ni != nil {
			res.Recover.Noise = &NoiseReport{
				Total:          ni.Total,
				Retained:       ni.Retained,
				Dropped:        ni.Dropped,
				DroppedEntries: ni.DroppedEntries,
				Confidence:     ni.Confidence,
				Margin:         ni.Margin,
			}
		}
		if len(report.Result.Codes) > 0 {
			code := report.Result.Codes[0]
			res.Recover.H = strings.Split(code.H().String(), "\n")
			text, err := code.MarshalText()
			if err != nil {
				return nil, err
			}
			res.Recover.Code = string(text)
			if spec.Verify {
				match := code.EquivalentTo(repro.GroundTruth(repro.SimulatedChip(mfr, k, seed)))
				res.Recover.GroundTruthMatch = &match
			}
		} else if spec.Verify {
			match := false
			res.Recover.GroundTruthMatch = &match
		}
		return res, nil
	}, nil
}

func buildSimulateRunner(spec JobSpec) (runner, error) {
	spec = spec.Normalized()
	words := spec.Words
	if words < 1 || words > maxWords {
		return nil, fmt.Errorf("words=%d out of range [1, %d]", spec.Words, maxWords)
	}
	rber := spec.RBER
	if rber < 0 || rber > 1 {
		return nil, fmt.Errorf("rber=%g out of [0, 1]", spec.RBER)
	}
	k := spec.K
	if k < 4 || k > 247 {
		return nil, fmt.Errorf("k=%d out of range [4, 247]", spec.K)
	}
	var code *ecc.Code
	switch spec.CodeFamily {
	case "sequential":
		code = ecc.SequentialHamming(k)
	case "bitreversed":
		code = ecc.BitReversedHamming(k)
	case "random":
		code = ecc.RandomHamming(k, rand.New(rand.NewPCG(spec.Seed, 2)))
	default:
		return nil, fmt.Errorf("unknown code family %q", spec.CodeFamily)
	}
	cfg := einsim.Config{Code: code, RBER: rber, Words: words}
	switch spec.Pattern {
	case "0xFF":
		cfg.Pattern = einsim.PatternAllOnes
	case "0x00":
		cfg.Pattern = einsim.PatternAllZeros
	case "RANDOM":
		cfg.Pattern = einsim.PatternRandom
	default:
		return nil, fmt.Errorf("unknown pattern %q", spec.Pattern)
	}
	switch spec.Model {
	case "uniform":
		cfg.Model = einsim.ModelUniform
	case "retention":
		cfg.Model = einsim.ModelRetention
	default:
		return nil, fmt.Errorf("unknown model %q", spec.Model)
	}
	seed := spec.Seed

	return func(ctx context.Context, engine *repro.Engine, _ repro.SolveCache, fn repro.ProgressFunc) (*JobResult, error) {
		pipe := repro.NewPipeline(repro.WithEngine(engine), repro.WithProgress(fn))
		res, err := pipe.Simulate(ctx, cfg, seed)
		if err != nil {
			return nil, err
		}
		return &JobResult{Simulate: &SimulateResult{
			N:            res.N,
			K:            res.K,
			Words:        res.Words,
			Correctable:  res.Correctable,
			Silent:       res.Silent,
			Partial:      res.Partial,
			Miscorrected: res.Miscorrected,
		}}, nil
	}, nil
}

// JobResult is the body of GET /api/v1/jobs/{id}/result; exactly one field
// is set, matching the job type.
type JobResult struct {
	Recover  *RecoverResult  `json:"recover,omitempty"`
	Simulate *SimulateResult `json:"simulate,omitempty"`
}

// RecoverResult reports a finished recovery job.
type RecoverResult struct {
	// K is the discovered dataword length.
	K int `json:"k"`
	// ProfileHash is the canonical content address of the collected
	// miscorrection profile (core.Profile.Hash) — the key of the recovered
	// function in the GET /codes registry, and what a later submission with
	// an identical profile dedupes on.
	ProfileHash string `json:"profile_hash,omitempty"`
	// Unique is true when exactly one ECC function matches the profile.
	Unique bool `json:"unique"`
	// Candidates counts the enumerated matching functions.
	Candidates int `json:"candidates"`
	// H holds the recovered parity-check matrix H = [P | I], one bit-string
	// row per entry (first candidate).
	H []string `json:"h,omitempty"`
	// Code is the recovered function in ecc.Code text form, parseable with
	// Code.UnmarshalText.
	Code string `json:"code,omitempty"`
	// GroundTruthMatch reports the verify outcome (recover jobs with
	// "verify": true against simulated chips only).
	GroundTruthMatch *bool `json:"ground_truth_match,omitempty"`
	// PatternsUsed and PatternsFull report the adaptive planner's economy
	// ("plan": true jobs only): how many test patterns were collected
	// before the code was determined, against the full-sweep family size.
	PatternsUsed int `json:"patterns_used,omitempty"`
	PatternsFull int `json:"patterns_full,omitempty"`
	// Noise reports the drop-k outcome of a confidence-weighted recovery
	// (jobs submitted with noise_fp/noise_fn/max_drop only).
	Noise *NoiseReport `json:"noise,omitempty"`
	// Solver carries the run's SAT-engine counters.
	Solver *SolverStats `json:"solver,omitempty"`
	// CollectMS and SolveMS time the experiment and solver phases.
	CollectMS float64 `json:"collect_ms"`
	SolveMS   float64 `json:"solve_ms"`
}

// NoiseReport is the "noise" block of a confidence-weighted recovery
// result (core.NoiseInfo on the wire).
type NoiseReport struct {
	// Total, Retained and Dropped count the solved profile's entries
	// (total = retained + dropped).
	Total    int `json:"total"`
	Retained int `json:"retained"`
	Dropped  int `json:"dropped"`
	// DroppedEntries lists the indexes of the profile entries the drop-k
	// loop retracted as inconsistent.
	DroppedEntries []int `json:"dropped_entries,omitempty"`
	// Confidence grades the recovery in [0, 1]: 1.0 means every entry was
	// retained and exactly one function matches (indistinguishable from an
	// exact solve); it shrinks with each dropped entry and each extra
	// candidate.
	Confidence float64 `json:"confidence"`
	// Margin is the support gap between the weakest retained and strongest
	// dropped entry (0 when nothing was dropped or support is uniform).
	Margin float64 `json:"margin"`
}

// SolverStats reports the SAT engine's work for one recovery: cumulative
// conflicts, propagations, learnt clauses and restarts, plus how many
// profile entries the incremental engine never had to encode. Portfolio
// runs additionally report how many solver races were held and each
// competitor's record.
type SolverStats struct {
	Conflicts       int64              `json:"conflicts"`
	Propagations    int64              `json:"propagations"`
	Learned         int64              `json:"learned"`
	Restarts        int64              `json:"restarts"`
	PatternsSkipped int                `json:"patterns_skipped,omitempty"`
	Races           int64              `json:"races,omitempty"`
	Competitors     []CompetitorReport `json:"competitors,omitempty"`
}

// CompetitorReport is one portfolio competitor's cumulative record: how
// many races it won, lost (another competitor answered first, or it was
// cancelled), timed out, or failed outright.
type CompetitorReport struct {
	Name     string `json:"name"`
	Wins     int64  `json:"wins"`
	Losses   int64  `json:"losses"`
	Timeouts int64  `json:"timeouts,omitempty"`
	Errors   int64  `json:"errors,omitempty"`
}

// competitorReports converts the engine's per-competitor records to the
// wire type.
func competitorReports(stats []repro.CompetitorStat) []CompetitorReport {
	if len(stats) == 0 {
		return nil
	}
	out := make([]CompetitorReport, len(stats))
	for i, c := range stats {
		out[i] = CompetitorReport{
			Name: c.Name, Wins: c.Wins, Losses: c.Losses,
			Timeouts: c.Timeouts, Errors: c.Errors,
		}
	}
	return out
}

// SimulateResult reports a finished simulation job.
type SimulateResult struct {
	N            int   `json:"n"`
	K            int   `json:"k"`
	Words        int64 `json:"words"`
	Correctable  int64 `json:"correctable"`
	Silent       int64 `json:"silent"`
	Partial      int64 `json:"partial"`
	Miscorrected int64 `json:"miscorrected"`
}

// StageStatus is one pipeline stage's progress in a status response. Count
// and Total are monotonic: Count only grows while the job runs.
type StageStatus struct {
	Done  bool  `json:"done"`
	Count int64 `json:"count"`
	Total int64 `json:"total,omitempty"`
}

// ProgressStatus is the per-stage progress block of a status response.
// Updates increments on every pipeline event, so two successive polls can be
// ordered by it. On a cluster coordinator the block is aggregated from the
// executing worker's own status stream: Worker and Dispatches say where the
// job is running and how many dispatch attempts (1 + failovers) it took,
// and the per-stage counters stay monotonic across a failover even though
// the replacement worker restarts collection from scratch.
type ProgressStatus struct {
	Updates    int64       `json:"updates"`
	Stage      string      `json:"stage,omitempty"`
	Chips      int         `json:"chips,omitempty"`
	Worker     string      `json:"worker,omitempty"`
	Dispatches int         `json:"dispatches,omitempty"`
	Discover   StageStatus `json:"discover"`
	Collect    StageStatus `json:"collect"`
	Solve      StageStatus `json:"solve"`
	// Solver streams the live SAT-engine counters (and, for planned jobs,
	// patterns collected vs. the full sweep). Like the stage counters it is
	// monotonic: values only grow while the job runs, including across a
	// cluster failover.
	Solver SolverProgress `json:"solver,omitzero"`
}

// SolverProgress is the live solver block of a status response. All
// counters are monotonic except Confidence, which tracks the noisy solver's
// current grading of the surviving candidate set (it follows the freshest
// report: more candidates mean less confidence).
type SolverProgress struct {
	Conflicts       int64   `json:"conflicts,omitempty"`
	Propagations    int64   `json:"propagations,omitempty"`
	Learned         int64   `json:"learned,omitempty"`
	Races           int64   `json:"races,omitempty"`
	PatternsUsed    int     `json:"patterns_used,omitempty"`
	PatternsPlanned int     `json:"patterns_planned,omitempty"`
	EntriesDropped  int64   `json:"entries_dropped,omitempty"`
	Confidence      float64 `json:"confidence,omitempty"`
}

// JobStatus is the body of GET /api/v1/jobs/{id} and the element type of
// GET /api/v1/jobs.
type JobStatus struct {
	ID       string         `json:"id"`
	Type     string         `json:"type"`
	State    State          `json:"state"`
	Error    string         `json:"error,omitempty"`
	Created  time.Time      `json:"created"`
	Started  time.Time      `json:"started,omitzero"`
	Finished time.Time      `json:"finished,omitzero"`
	Progress ProgressStatus `json:"progress"`
}

func (s *Server) status(j *job) JobStatus {
	state, errText, started, finished := j.snapshotState()
	return JobStatus{
		ID:       j.id,
		Type:     j.spec.Type,
		State:    state,
		Error:    errText,
		Created:  j.created,
		Started:  started,
		Finished: finished,
		Progress: j.progress.snapshot(),
	}
}

// bufPool recycles the scratch buffers every JSON response is encoded into.
// Serializing to a pooled buffer first (instead of an Encoder writing to the
// ResponseWriter) costs one copy but stops the serialization path from
// allocating an encoder state machine and growth-resized buffer per request
// — measurable on beerload's status-poll hot loop.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBuf returns a scratch buffer to the pool unless it grew past the point
// where retaining it would pin more memory than re-allocating costs (large
// /codes listings).
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<16 {
		bufPool.Put(buf)
	}
}

// encodeJSON renders v in the API's canonical form: two-space indent plus
// the trailing newline json.Encoder emits.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = encodeJSON(buf, v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

// statusBody returns the serialized GET /jobs/{id} response for j, rebuilding
// it only when a progress event or state transition has invalidated the
// cached bytes (see job.invalidateStatus). Holding bodyMu across the rebuild
// makes concurrent pollers of one job coalesce onto a single snapshot+marshal.
// The returned slice is shared and must not be mutated.
func (s *Server) statusBody(j *job) []byte {
	j.bodyMu.Lock()
	defer j.bodyMu.Unlock()
	if j.body == nil {
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		_ = encodeJSON(buf, s.status(j))
		j.body = append([]byte(nil), buf.Bytes()...)
		putBuf(buf)
	}
	return j.body
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	// The caller's span context arrives either via the obs middleware
	// (cmd/beerd wraps the handler) or, for embedded handlers without
	// middleware (tests, workers driven by the coordinator), directly as a
	// traceparent header.
	parent := obs.SpanContextFrom(r.Context())
	if !parent.Valid() {
		parent, _ = obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	}
	j, err := s.submit(spec, parent)
	var saturated *SaturatedError
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrShuttingDown):
		// The server still answers status and result reads; only new work
		// is refused. Retry-After tells load balancers and the cluster
		// coordinator when to try again (or to try elsewhere).
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.As(err, &saturated):
		w.Header().Set("Retry-After", strconv.Itoa(int(saturated.RetryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.list()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, s.status(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// Serve the cached serialized body: a hot poll loop pays the monotonic
	// progress merge and the JSON marshal once per progress event, not once
	// per request.
	body := s.statusBody(j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	state, errText, _, _ := j.snapshotState()
	switch state {
	case StateRunning:
		writeError(w, http.StatusConflict, "job %s is still running", j.id)
	case StateFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", j.id, errText)
	case StateCanceled:
		writeError(w, http.StatusConflict, "job %s was canceled", j.id)
	default:
		j.mu.Lock()
		result := j.result
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, result)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.markUserCanceled() // DELETE is terminal: never resumed after a restart
	// Release the single-flight slot eagerly: the execution is doomed, so a
	// new identical submission must start fresh instead of attaching to it.
	s.releaseDedupe(j)
	j.cancel()
	// Record the terminal intent durably NOW: the goroutine persists the
	// final state only at its next pass boundary, and a crash in between
	// must not resurrect a user-cancelled job.
	s.persistCancelIntent(j)
	writeJSON(w, http.StatusOK, s.status(j))
}

// healthStatser is an optional Executor extension: executors that carry
// their own operational state (the cluster coordinator's worker fleet)
// contribute it to /healthz under "cluster".
type healthStatser interface {
	HealthStats() map[string]any
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	invocations, hits := s.SolveCounters()
	totals := s.solve.totals()
	noisyJobs, entriesDropped := s.solve.noisyTotals()
	codes := 0
	if keys, err := s.store.Backend().Keys(store.BucketCodes); err == nil {
		codes = len(keys)
	}
	payload := map[string]any{
		"status":    "ok",
		"workers":   s.engine.Workers(),
		"in_flight": s.engine.InFlight(),
		"executor":  s.executor.Describe(),
		"jobs":      s.stateCounts(),
		"running":   s.RunningJobs(),
		"store":     s.store.Describe(),
		"codes":     codes,
		"solver": map[string]any{
			"invocations":      invocations,
			"cache_hits":       hits,
			"conflicts":        totals.Conflicts,
			"propagations":     totals.Propagations,
			"learned":          totals.Learned,
			"restarts":         totals.Restarts,
			"patterns_skipped": totals.PatternsSkipped,
			"noisy_recoveries": noisyJobs,
			"entries_dropped":  entriesDropped,
			"races":            totals.Races,
		},
	}
	// Portfolio runs additionally expose fleet-lifetime per-competitor
	// records; solver-less deployments keep the payload unchanged.
	if len(totals.Competitors) > 0 {
		payload["portfolio"] = totals.Competitors
	}
	if s.maxJobs > 0 {
		payload["max_concurrent"] = s.maxJobs
	}
	if s.Draining() {
		payload["draining"] = true
	}
	if hs, ok := s.executor.(healthStatser); ok {
		payload["cluster"] = hs.HealthStats()
	}
	writeJSON(w, http.StatusOK, payload)
}

// CodeListing is one entry of the GET /codes registry listing: the first
// candidate function in the export wire format (store.CodeExport) plus the
// record's registry metadata.
type CodeListing struct {
	store.CodeExport
	// Candidates counts every function consistent with the profile; the
	// embedded export is the first. GET /codes/{profile_hash} returns all.
	Candidates int `json:"candidates"`
	// CreatedAt and Source record when and by which job the profile was
	// first solved.
	CreatedAt time.Time `json:"created_at"`
	Source    string    `json:"source,omitempty"`
	// DetermineMS and UniquenessMS replay the original solver timings.
	DetermineMS  float64 `json:"determine_ms"`
	UniquenessMS float64 `json:"uniqueness_ms"`
}

// CodeDetail is the body of GET /codes/{profile_hash}: the full registry
// record with every candidate exported.
type CodeDetail struct {
	ProfileHash  string             `json:"profile_hash"`
	K            int                `json:"k"`
	N            int                `json:"n"`
	Unique       bool               `json:"unique"`
	Exhausted    bool               `json:"exhausted"`
	Candidates   int                `json:"candidates"`
	CreatedAt    time.Time          `json:"created_at"`
	Source       string             `json:"source,omitempty"`
	DetermineMS  float64            `json:"determine_ms"`
	UniquenessMS float64            `json:"uniqueness_ms"`
	Codes        []store.CodeExport `json:"codes"`
}

// handleCodes lists the recovered-code registry, oldest record first.
// Records whose search proved the profile unsatisfiable carry no codes and
// are omitted from the listing (they remain readable by hash).
func (s *Server) handleCodes(w http.ResponseWriter, r *http.Request) {
	recs, err := s.store.Codes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading code registry: %v", err)
		return
	}
	listings := make([]CodeListing, 0, len(recs))
	for _, rec := range recs {
		exps, err := rec.Export()
		if err != nil || len(exps) == 0 {
			continue
		}
		listings = append(listings, CodeListing{
			CodeExport:   exps[0],
			Candidates:   len(rec.Codes),
			CreatedAt:    rec.CreatedAt,
			Source:       rec.Source,
			DetermineMS:  rec.DetermineMS,
			UniquenessMS: rec.UniquenessMS,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"codes": listings})
}

// handleCode returns one registry record with every candidate function.
func (s *Server) handleCode(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok, err := s.store.GetCode(hash)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading code registry: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no recovered code for profile hash %q", hash)
		return
	}
	exps, err := rec.Export()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "exporting record: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CodeDetail{
		ProfileHash:  rec.ProfileHash,
		K:            rec.K,
		N:            rec.N,
		Unique:       rec.Unique,
		Exhausted:    rec.Exhausted,
		Candidates:   len(rec.Codes),
		CreatedAt:    rec.CreatedAt,
		Source:       rec.Source,
		DetermineMS:  rec.DetermineMS,
		UniquenessMS: rec.UniquenessMS,
		Codes:        exps,
	})
}
