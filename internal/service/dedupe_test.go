package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentSubmitDedupe proves the single-flight guarantee on the
// standalone path: N identical concurrent submissions collapse into exactly
// one execution and one solver invocation, and every submitter receives the
// same job — and therefore the same result. Run under -race, this also
// exercises the inflight table and the sharded job table under contention.
func TestConcurrentSubmitDedupe(t *testing.T) {
	srv, ts := newTestServer(t)

	const n = 8
	spec := JobSpec{Type: "recover", Manufacturer: "B", K: 16, Chips: 2, Seed: 7, Verify: true}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	type submission struct {
		status JobStatus
		code   int
		loc    string
		err    error
	}
	subs := make([]submission, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(payload))
			if err != nil {
				subs[i].err = err
				return
			}
			defer resp.Body.Close()
			subs[i].code = resp.StatusCode
			subs[i].loc = resp.Header.Get("Location")
			subs[i].err = json.NewDecoder(resp.Body).Decode(&subs[i].status)
		}(i)
	}
	close(start)
	wg.Wait()

	id := subs[0].status.ID
	for i, s := range subs {
		if s.err != nil {
			t.Fatalf("submission %d: %v", i, s.err)
		}
		if s.code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, s.code)
		}
		if s.status.ID != id {
			t.Fatalf("submission %d joined job %s, submission 0 got %s — dedupe leaked an execution", i, s.status.ID, id)
		}
		if s.loc != "/api/v1/jobs/"+id {
			t.Fatalf("submission %d: Location = %q, want %q", i, s.loc, "/api/v1/jobs/"+id)
		}
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != n-1 {
		t.Fatalf("dedupe hits = %d, want %d", hits, n-1)
	}

	// Exactly one job exists on the server.
	resp, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	listing := decode[map[string][]JobStatus](t, body)
	if len(listing["jobs"]) != 1 {
		t.Fatalf("server holds %d jobs, want exactly 1", len(listing["jobs"]))
	}

	final := waitTerminal(t, ts.URL, id)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	// One execution means one solver invocation — N independent runs would
	// each have solved (or raced on) the profile.
	if inv := srv.SolverTotals().Invocations; inv != 1 {
		t.Fatalf("solver invoked %d times, want 1", inv)
	}

	// Every submitter's Location serves the shared result.
	for i, s := range subs {
		resp, body := do(t, http.MethodGet, ts.URL+s.loc+"/result", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d result: %s: %s", i, resp.Status, body)
		}
		res := decode[JobResult](t, body)
		if res.Recover == nil || !res.Recover.Unique {
			t.Fatalf("submission %d: unexpected result payload: %s", i, body)
		}
	}

	// Completion releases the single-flight slot: an identical resubmission
	// must start a fresh execution, not resurrect the finished job.
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s: %s", resp.Status, body)
	}
	if again := decode[JobStatus](t, body); again.ID == id {
		t.Fatalf("resubmission after completion reused finished job %s", id)
	}
}

// TestDedupeDistinguishesSpecs: specs differing in any result-affecting
// field must not collapse, even when submitted concurrently.
func TestDedupeDistinguishesSpecs(t *testing.T) {
	srv, ts := newTestServer(t)

	specs := []JobSpec{
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 7},
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 8},               // different chip
		{Type: "recover", Manufacturer: "A", K: 16, Seed: 7},               // different code
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 7, Verify: true}, // different run shape
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	start := make(chan struct{})
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			payload, err := json.Marshal(spec)
			if err != nil {
				errs[i] = err
				return
			}
			<-start
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i, spec)
	}
	close(start)
	wg.Wait()

	seen := make(map[string]int)
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("distinct specs %d and %d collapsed into job %s", prev, i, id)
		}
		seen[id] = i
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != 0 {
		t.Fatalf("dedupe hits = %d on distinct specs, want 0", hits)
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
	}
}

// TestDedupeIgnoresDeprecatedLazySolver: use_lazy_solver is an accepted
// no-op kept for wire compatibility, so a body carrying it is still a 202
// and concurrent submissions differing only in that field share one job.
func TestDedupeIgnoresDeprecatedLazySolver(t *testing.T) {
	plain := JobSpec{Type: "recover", Manufacturer: "B", K: 16, Chips: 2, Seed: 11}
	lazy := plain
	lazy.DeprecatedLazySolver = true
	if dedupeKey(plain) != dedupeKey(lazy) {
		t.Fatalf("use_lazy_solver changed the dedupe key:\n%s\n%s", dedupeKey(plain), dedupeKey(lazy))
	}

	srv, ts := newTestServer(t)
	bodies := []string{
		`{"type":"recover","manufacturer":"B","k":16,"chips":2,"seed":11}`,
		`{"type":"recover","manufacturer":"B","k":16,"chips":2,"seed":11,"use_lazy_solver":true}`,
	}
	ids := make([]string, len(bodies))
	errs := make([]error, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("status %s, want 202", resp.Status)
				return
			}
			var st JobStatus
			errs[i] = json.NewDecoder(resp.Body).Decode(&st)
			ids[i] = st.ID
		}(i, body)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if ids[0] != ids[1] {
		t.Fatalf("specs differing only in use_lazy_solver ran as jobs %s and %s", ids[0], ids[1])
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != 1 {
		t.Fatalf("dedupe hits = %d, want 1", hits)
	}
	if final := waitTerminal(t, ts.URL, ids[0]); final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
}
