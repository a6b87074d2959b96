package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/sat"
)

// This file is the incremental solve engine behind Solve and the Planner.
// One SolveSession owns one SAT backend for its whole life: profile entries
// stream in (Feed), the uniqueness blocking-clause loop and every
// pattern-increment re-solve run on the same solver instance, so learned
// clauses — the expensive part of CDCL search — are never thrown away.
// That is what makes solve-while-you-collect planning affordable: each new
// batch of patterns re-solves an already hot solver instead of rebuilding
// the CNF from scratch.

// SolveSession is a persistent incremental search for the ECC functions
// consistent with a growing miscorrection profile. Entries stream in via
// Feed; Enumerate (re-)runs candidate enumeration and may be called again
// after more Feeds — constraints only ever grow, so models found earlier
// stay blocked in the solver and are re-validated against the newer entries
// with the cheap analytic oracle instead of more SAT work.
//
// A session is single-goroutine, like the backend it owns.
type SolveSession struct {
	opts SolveOptions
	k, r int
	enc  *encoder

	entries []Entry // every entry fed, in order (added or deferred)
	pending []Entry // deferred multi-CHARGED entries not yet encoded
	added   int     // entries encoded into the CNF

	// found holds every model the solver ever produced (each blocked
	// immediately); candidates during Enumerate are the subset still
	// consistent with all fed entries.
	found       []*ecc.Code
	exhausted   bool
	refinements int
}

// NewSolveSession builds an empty session for dataword length k. The
// backend (opts.Backend, default in-process CDCL) is created once here and
// lives as long as the session.
func NewSolveSession(k int, opts SolveOptions) (*SolveSession, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: profile has no dataword bits")
	}
	r := opts.ParityBits
	if r == 0 {
		r = ecc.MinParityBits(k)
	}
	enc := newEncoder(k, r, opts.backend())
	enc.s.SetMaxConflicts(opts.MaxConflicts)
	return &SolveSession{opts: opts, k: k, r: r, enc: enc}, nil
}

// Feed streams profile entries into the session. 1-CHARGED entries (and
// everything, under EagerEncode) are encoded immediately; multi-CHARGED
// entries are deferred and materialized only when a candidate model
// violates them (counterexample-guided refinement) — most never are.
func (ss *SolveSession) Feed(entries ...Entry) error {
	for _, entry := range entries {
		if entry.Possible.Len() != ss.k {
			return fmt.Errorf("core: entry %v has %d bits, profile has k=%d",
				entry.Pattern, entry.Possible.Len(), ss.k)
		}
		ss.entries = append(ss.entries, entry)
		if ss.opts.EagerEncode || entry.Pattern.Weight() <= 1 {
			ss.enc.addEntry(entry)
			ss.added++
		} else {
			ss.pending = append(ss.pending, entry)
		}
	}
	return nil
}

// EntriesFed returns how many profile entries the session has received.
func (ss *SolveSession) EntriesFed() int { return len(ss.entries) }

// Profile returns the profile fed so far (entries in arrival order).
func (ss *SolveSession) Profile() *Profile {
	return &Profile{K: ss.k, Entries: append([]Entry(nil), ss.entries...)}
}

// Stats returns the backend's cumulative solver counters.
func (ss *SolveSession) Stats() sat.Stats { return ss.enc.s.Statistics() }

// matches reports whether a candidate code's exact profile agrees with
// every entry fed so far — the analytic-oracle filter that revalidates
// previously found models after new entries arrive, with zero SAT work.
func (ss *SolveSession) matches(code *ecc.Code) bool {
	for _, entry := range ss.entries {
		oracle := ExactProfile
		if entry.Anti {
			oracle = ExactProfileAnti
		}
		got := oracle(code, []Pattern{entry.Pattern}).Entries[0].Possible
		if !got.Equal(entry.Possible) {
			return false
		}
	}
	return true
}

// refine oracle-checks a candidate against the deferred entries and encodes
// the violated ones (a few at a time; more are often implied). It returns
// how many entries were materialized; zero means the candidate survives.
func (ss *SolveSession) refine(code *ecc.Code) int {
	violated := 0
	keep := ss.pending[:0]
	for _, entry := range ss.pending {
		if violated >= 8 { // add a few at a time; more may be implied
			keep = append(keep, entry)
			continue
		}
		oracle := ExactProfile
		if entry.Anti {
			oracle = ExactProfileAnti
		}
		got := oracle(code, []Pattern{entry.Pattern}).Entries[0].Possible
		if got.Equal(entry.Possible) {
			keep = append(keep, entry)
			continue
		}
		ss.enc.addEntry(entry)
		ss.added++
		violated++
		ss.refinements++
	}
	ss.pending = keep
	return violated
}

// statsEvent builds a StageSolve progress event carrying the live candidate
// bound and the session's cumulative solver counters. LearnedClauses is the
// cumulative Stats.Learnt — not the live clause-database size, which
// reduceDB shrinks — so the field is genuinely monotonic and agrees with
// the result/healthz counter of the same name.
func (ss *SolveSession) statsEvent(candidates int) Event {
	stats := ss.enc.s.Statistics()
	return Event{
		Stage:          StageSolve,
		Candidates:     candidates,
		Conflicts:      stats.Conflicts,
		Propagations:   stats.Propagations,
		LearnedClauses: stats.Learnt,
		Races:          stats.Races,
		Competitors:    stats.Competitors,
	}
}

// Enumerate (re-)runs candidate enumeration against everything fed so far
// and returns the current Result. The live candidate set is the
// oracle-filtered survivors of all models ever found plus whatever further
// models the persistent solver produces, up to opts.MaxSolutions (0 means
// 2 — enough to answer "unique or not"; negative means unlimited).
// Result.Unique is true once the solver has exhausted the search space with
// exactly one survivor. Enumerate may be called again after more Feeds;
// cancelling ctx interrupts the SAT search at its next conflict, restart or
// 64th decision — and the refinement loop between re-solves — returning
// ctx.Err().
func (ss *SolveSession) Enumerate(ctx context.Context) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	translate := interruptFromCtx(ctx, ss.enc.s)
	maxSol := ss.opts.MaxSolutions
	if maxSol == 0 {
		maxSol = 2
	}

	res := &Result{}
	fillRes := func() {
		res.Exhausted = ss.exhausted
		res.Unique = ss.exhausted && len(res.Codes) == 1
		res.Vars = ss.enc.s.NumVars()
		res.Clauses = ss.enc.s.NumClauses()
		res.PatternsUsed = ss.added
		res.PatternsSkipped = len(ss.pending)
		res.LazyRefinements = ss.refinements
		res.Stats = ss.enc.s.Statistics()
	}

	// Revalidate earlier finds against the full entry set (new entries may
	// have arrived since they were enumerated).
	for _, code := range ss.found {
		if ss.matches(code) {
			res.Codes = append(res.Codes, code)
		}
	}

	vars := ss.enc.pVars()
	start := time.Now()
	firstFound := len(res.Codes) > 0
	for maxSol < 0 || len(res.Codes) < maxSol {
		// Bound cancellation latency between refinement re-solves too: a
		// run of cheap oracle-refuted candidates must still observe ctx.
		if err := ctx.Err(); err != nil {
			fillRes()
			return res, err
		}
		if ss.exhausted {
			break
		}
		found, err := ss.enc.s.Solve()
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: solve: %w", translate(err))
		}
		if !found {
			ss.exhausted = true
			break
		}
		code, err := ss.enc.modelCode()
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: SAT model is not a valid code: %w", err)
		}
		// Counterexample check against the deferred entries; a violated
		// candidate is excluded by the refinements themselves, so only
		// survivors need a blocking clause.
		if ss.refine(code) > 0 {
			continue
		}
		// Block immediately — not lazily on the next iteration — so the
		// session can resume enumeration cleanly after later Feeds.
		ss.found = append(ss.found, code)
		if !sat.BlockModel(ss.enc.s, vars) {
			ss.exhausted = true
		}
		res.Codes = append(res.Codes, code)
		ss.opts.Progress.emit(ss.statsEvent(len(res.Codes)))
		if !firstFound {
			firstFound = true
			res.DetermineTime = time.Since(start)
			start = time.Now()
		}
	}
	if firstFound {
		res.UniquenessTime = time.Since(start)
	} else {
		res.DetermineTime = time.Since(start)
	}
	fillRes()
	return res, nil
}

// Solve finds the ECC functions consistent with a miscorrection profile
// (paper §5.3), including the uniqueness check: it streams the profile into
// a fresh SolveSession and enumerates candidates on the persistent solver.
// 1-CHARGED entries are encoded up front; multi-CHARGED entries are deferred
// until a candidate model violates them (counterexample-guided refinement),
// which usually leaves most of a {1,2}-CHARGED profile un-encoded
// (Result.PatternsSkipped). The candidate set is bit-identical to encoding
// every entry eagerly (SolveOptions.EagerEncode, the reference the
// differential tests compare against). The Planner drives the same session
// directly, interleaving Feeds with collection. Cancelling ctx interrupts
// the SAT search at its next conflict, restart or 64th decision and returns
// ctx.Err().
func Solve(ctx context.Context, profile *Profile, opts SolveOptions) (*Result, error) {
	ss, err := NewSolveSession(profile.K, opts)
	if err != nil {
		return nil, err
	}
	if err := ss.Feed(profile.Entries...); err != nil {
		return nil, err
	}
	return ss.Enumerate(ctx)
}
