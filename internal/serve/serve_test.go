package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plan"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	return NewServer(opts)
}

// post sends one JSON request through the handler stack and decodes the
// JSON response into out (when non-nil), returning the status code.
func post(t *testing.T, s *Server, path string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

// TestCompileCachesByContent pins the content-addressed cache behavior:
// the first compile misses, the second request for the same (model, M,
// heuristic) is served from the cache with an identical digest.
func TestCompileCachesByContent(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var first, second CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &first); code != http.StatusOK {
		t.Fatalf("first compile: status %d", code)
	}
	if first.Cached {
		t.Fatal("first compile reported cached")
	}
	if first.Digest == "" || first.Jobs == 0 || !first.Feasible {
		t.Fatalf("implausible compile response: %+v", first)
	}
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &second); code != http.StatusOK {
		t.Fatalf("second compile: status %d", code)
	}
	if !second.Cached {
		t.Fatal("second compile not served from cache")
	}
	if second.Digest != first.Digest {
		t.Fatalf("digest changed between requests: %s vs %s", first.Digest, second.Digest)
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d after two identical requests, want 1", got)
	}

	// A different M is a different pipeline: new miss, same digest.
	var third CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal", "m": 3}, &third); code != http.StatusOK {
		t.Fatalf("m=3 compile: status %d", code)
	}
	if third.Cached {
		t.Fatal("m=3 compile reported cached despite new key")
	}
	if third.Digest != first.Digest {
		t.Fatal("digest must depend on model content only, not on M")
	}
	if got := s.metrics.Compiles.Load(); got != 2 {
		t.Fatalf("Compiles = %d, want 2", got)
	}
}

// TestSingleflightCoalescesConcurrentMisses fires N concurrent first
// requests for one cold key and requires exactly one pipeline execution:
// one miss, N-1 coalesced waiters, all successful.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	const n = 16

	var wg sync.WaitGroup
	codes := make([]int, n)
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp CompileResponse
			codes[i] = post(t, s, "/compile", map[string]any{"app": "fms"}, &resp)
			digests[i] = resp.Digest
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if digests[i] != digests[0] {
			t.Fatalf("request %d saw digest %s, want %s", i, digests[i], digests[0])
		}
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests ran %d compiles, want exactly 1", n, got)
	}
	if got := s.metrics.Misses.Load(); got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
	// Latecomers either coalesced onto the in-flight compile or hit the
	// finished entry, depending on scheduling; none may have missed.
	hits, coal := s.metrics.Hits.Load(), s.metrics.Coalesced.Load()
	if hits+coal != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", hits, coal, n-1)
	}
}

// TestCacheSingleflightDeterministic drives the cache directly with a
// gated compile function so every waiter is provably in flight before the
// compile finishes: exactly one compile call, n-1 coalesced waiters.
func TestCacheSingleflightDeterministic(t *testing.T) {
	t.Parallel()
	m := &Metrics{}
	c := newCache(1<<30, m)
	key := cacheKey{digest: "d", m: 2, heuristic: "alap-edf"}

	release := make(chan struct{})
	var compiles int32
	compile := func() (*Entry, error) {
		atomic.AddInt32(&compiles, 1)
		<-release
		return &Entry{cost: 1, metrics: m}, nil
	}

	const n = 8
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.GetOrCompile(key, compile)
			if err != nil {
				t.Errorf("GetOrCompile: %v", err)
			}
			entries[i] = e
		}(i)
	}
	// Wait until all n-1 latecomers are parked on the flight, then let
	// the one compile finish.
	deadline := time.Now().Add(5 * time.Second)
	for m.Coalesced.Load() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters coalesced", m.Coalesced.Load(), n-1)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&compiles); got != 1 {
		t.Fatalf("compile ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	if m.Misses.Load() != 1 || m.Coalesced.Load() != n-1 {
		t.Fatalf("misses=%d coalesced=%d", m.Misses.Load(), m.Coalesced.Load())
	}
}

// TestCacheCompileErrorsAreNotCached pins that a failed compile is shared
// with its coalesced waiters but never inserted: the next request retries.
func TestCacheCompileErrorsAreNotCached(t *testing.T) {
	t.Parallel()
	m := &Metrics{}
	c := newCache(1<<30, m)
	key := cacheKey{digest: "bad", m: 2, heuristic: "alap-edf"}

	boom := errors.New("boom")
	if _, _, err := c.GetOrCompile(key, func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compile was cached")
	}
	// Retry succeeds and caches.
	e, hit, err := c.GetOrCompile(key, func() (*Entry, error) {
		return &Entry{cost: 1, metrics: m}, nil
	})
	if err != nil || hit || e == nil {
		t.Fatalf("retry: e=%v hit=%v err=%v", e, hit, err)
	}
	if c.Len() != 1 {
		t.Fatal("successful retry not cached")
	}
}

// TestSimulateWarmPathReusesEverything pins the tentpole acceptance
// criterion: after the first /simulate, further identical requests
// perform zero compiles and create zero new RunStates — the warm path is
// cache hit + pooled state + replay.
func TestSimulateWarmPathReusesEverything(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	req := map[string]any{"app": "signal", "frames": 4}

	var first SimulateResponse
	if code := post(t, s, "/simulate", req, &first); code != http.StatusOK {
		t.Fatalf("first simulate: status %d", code)
	}
	if first.Entries == 0 {
		t.Fatalf("simulate executed no jobs: %+v", first)
	}
	compiles := s.metrics.Compiles.Load()
	states := s.metrics.StatesCreated.Load()
	if compiles != 1 || states != 1 {
		t.Fatalf("cold simulate: compiles=%d states=%d, want 1/1", compiles, states)
	}

	for i := 0; i < 50; i++ {
		var resp SimulateResponse
		if code := post(t, s, "/simulate", req, &resp); code != http.StatusOK {
			t.Fatalf("warm simulate %d: status %d", i, code)
		}
		if !resp.Cached {
			t.Fatalf("warm simulate %d missed the cache", i)
		}
		if resp.Entries != first.Entries || resp.Makespan != first.Makespan {
			t.Fatalf("warm simulate %d diverged: %+v vs %+v", i, resp, first)
		}
	}
	if got := s.metrics.Compiles.Load(); got != compiles {
		t.Fatalf("warm traffic ran %d extra compiles", got-compiles)
	}
	if got := s.metrics.StatesCreated.Load(); got != states {
		t.Fatalf("warm sequential traffic created %d extra RunStates, want 0", got-states)
	}
}

// TestSimulatePoolBoundsStatesUnderConcurrency hammers one warm entry
// from many goroutines: the number of RunStates ever created must stay at
// or below the high-water concurrency, not grow with request count.
func TestSimulatePoolBoundsStatesUnderConcurrency(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	req := map[string]any{"app": "signal", "frames": 2}
	if code := post(t, s, "/simulate", req, nil); code != http.StatusOK {
		t.Fatalf("warm-up simulate: status %d", code)
	}

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var resp SimulateResponse
				if code := post(t, s, "/simulate", req, &resp); code != http.StatusOK {
					t.Errorf("simulate: status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d under warm concurrent load, want 1", got)
	}
	if got := s.metrics.StatesCreated.Load(); got > workers+1 {
		t.Fatalf("StatesCreated = %d for %d workers: pool is not reusing states", got, workers)
	}
}

// TestSimulateWithSporadicEvents exercises the events parameter end to
// end on the FMS model: injected sporadic arrivals must grow the executed
// job count versus the quiescent run.
func TestSimulateWithSporadicEvents(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var quiet, busy SimulateResponse
	if code := post(t, s, "/simulate", map[string]any{"app": "fms"}, &quiet); code != http.StatusOK {
		t.Fatalf("quiescent simulate: status %d", code)
	}
	req := map[string]any{
		"app": "fms",
		"events": map[string][]string{
			"AnemoConfig":      {"0.04"},
			"MagnDeclinConfig": {"1/2"},
		},
	}
	if code := post(t, s, "/simulate", req, &busy); code != http.StatusOK {
		t.Fatalf("event simulate: status %d", code)
	}
	if busy.Entries <= quiet.Entries {
		t.Fatalf("sporadic events did not add executions: %d vs %d", busy.Entries, quiet.Entries)
	}
	if busy.Skipped >= quiet.Skipped {
		t.Fatalf("sporadic events did not consume skips: %d vs %d", busy.Skipped, quiet.Skipped)
	}
}

// TestSimulateConcurrentRunnerMatchesSequential pins that the
// goroutine-per-processor runner behind "concurrent": true reports the
// same headline numbers as the discrete-event reference.
func TestSimulateConcurrentRunnerMatchesSequential(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var seq, conc SimulateResponse
	if code := post(t, s, "/simulate", map[string]any{"app": "signal", "frames": 3}, &seq); code != http.StatusOK {
		t.Fatalf("sequential simulate: status %d", code)
	}
	if code := post(t, s, "/simulate", map[string]any{"app": "signal", "frames": 3, "concurrent": true}, &conc); code != http.StatusOK {
		t.Fatalf("concurrent simulate: status %d", code)
	}
	if seq.Entries != conc.Entries || seq.Makespan != conc.Makespan || seq.MaxLateness != conc.MaxLateness {
		t.Fatalf("concurrent runner diverged from sequential:\nseq  %+v\nconc %+v", seq, conc)
	}
}

// TestAnalyzeVerdicts checks the three /analyze sections on a model known
// to be clean: no lint errors, a schedulable verdict, and a race-free
// happens-before certificate.
func TestAnalyzeVerdicts(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var resp AnalyzeResponse
	if code := post(t, s, "/analyze", map[string]any{"app": "signal"}, &resp); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if resp.Lint.Errors != 0 {
		t.Fatalf("signal model lints with %d errors: %+v", resp.Lint.Errors, resp.Lint.Findings)
	}
	if resp.Schedulability.Skipped != "" {
		t.Fatalf("schedulability skipped: %s", resp.Schedulability.Skipped)
	}
	if len(resp.Schedulability.Results) == 0 {
		t.Fatal("no schedulability results")
	}
	if resp.Determinism.Skipped != "" || !resp.Determinism.RaceFree {
		t.Fatalf("determinism verdict: %+v", resp.Determinism)
	}
	if resp.Determinism.Pairs == 0 {
		t.Fatal("happens-before checked zero conflicting pairs")
	}
}

// TestAnalyzeJobGate pins the MaxAnalyzeJobs gate: an oversized graph
// still lints but reports the expensive passes as skipped.
func TestAnalyzeJobGate(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{MaxAnalyzeJobs: 1})

	var resp AnalyzeResponse
	if code := post(t, s, "/analyze", map[string]any{"app": "signal"}, &resp); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if resp.Schedulability.Skipped == "" || resp.Determinism.Skipped == "" {
		t.Fatalf("gate did not fire: %+v", resp)
	}
	if len(resp.Lint.Findings) == 0 && resp.Lint.Warnings == 0 && resp.Lint.Errors == 0 {
		// Lint always runs; a clean report is fine, but the section must
		// have been populated (Findings may legitimately be empty).
		t.Log("lint section empty but present — ok")
	}
}

// TestRequestValidation maps the failure modes to their statuses: bad
// parameters are 400s, and none of them reach the compiler.
func TestRequestValidation(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	cases := []struct {
		name string
		path string
		req  map[string]any
	}{
		{"unknown app", "/compile", map[string]any{"app": "no-such-app"}},
		{"missing app", "/compile", map[string]any{}},
		{"bad heuristic", "/compile", map[string]any{"app": "signal", "heuristic": "quantum"}},
		{"m too big", "/compile", map[string]any{"app": "signal", "m": 10_000}},
		{"m negative", "/compile", map[string]any{"app": "signal", "m": -1}},
		{"frames too big", "/simulate", map[string]any{"app": "signal", "frames": 1 << 20}},
		{"frames negative", "/simulate", map[string]any{"app": "signal", "frames": -2}},
		{"bad event time", "/simulate", map[string]any{"app": "fms", "events": map[string][]string{"AnemoConfig": {"soon"}}}},
		{"bad scale", "/compile", map[string]any{"app": "scale:many"}},
	}
	for _, tc := range cases {
		if code := post(t, s, tc.path, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if got := s.metrics.Compiles.Load(); got != 0 {
		t.Fatalf("invalid requests ran %d compiles", got)
	}
	if got := s.metrics.Errors.Load(); got != int64(len(cases)) {
		t.Fatalf("Errors = %d, want %d", got, len(cases))
	}

	// Wrong method on a POST route.
	r := httptest.NewRequest(http.MethodGet, "/compile", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", w.Code)
	}
}

// TestEvictionUnderTinyBudget forces the cost budget down until inserting
// a second pipeline evicts the first, and requires the cache to keep
// serving (the newest entry is never evicted).
func TestEvictionUnderTinyBudget(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{CacheBudget: 1})

	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, nil); code != http.StatusOK {
		t.Fatalf("first compile: status %d", code)
	}
	if code := post(t, s, "/compile", map[string]any{"app": "fft"}, nil); code != http.StatusOK {
		t.Fatalf("second compile: status %d", code)
	}
	if got := s.metrics.Evictions.Load(); got == 0 {
		t.Fatal("tiny budget produced no evictions")
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries over a 1-byte budget, want 1", got)
	}
	// The evicted model recompiles on demand.
	var again CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal"}, &again); code != http.StatusOK {
		t.Fatalf("recompile after eviction: status %d", code)
	}
	if again.Cached {
		t.Fatal("evicted entry reported cached")
	}
}

// TestMetricsAndHealthz exercises the two GET endpoints and checks the
// stats snapshot is consistent with the traffic just sent.
func TestMetricsAndHealthz(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})

	var health map[string]any
	if code := get(t, s, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	for i := 0; i < 3; i++ {
		if code := post(t, s, "/simulate", map[string]any{"app": "signal"}, nil); code != http.StatusOK {
			t.Fatalf("simulate %d: status %d", i, code)
		}
	}
	var stats Stats
	if code := get(t, s, "/metrics", &stats); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if stats.Requests != 3 {
		t.Fatalf("Requests = %d, want 3", stats.Requests)
	}
	if stats.Cache.Hits != 2 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats %+v, want 2 hits / 1 miss", stats.Cache)
	}
	sim := stats.Latency["simulate"]
	if sim.Count != 3 || sim.P99Us <= 0 {
		t.Fatalf("simulate latency snapshot %+v", sim)
	}
	if stats.Cache.CostUsed <= 0 || stats.Cache.CostBudget <= 0 {
		t.Fatalf("cost accounting missing: %+v", stats.Cache)
	}
}

// TestHistogramQuantiles sanity-checks the log2 histogram math the
// /metrics p50/p99 figures rest on.
func TestHistogramQuantiles(t *testing.T) {
	t.Parallel()
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v", got)
	}
	// 99 fast samples, 1 slow: p50 in the fast bucket, p99 window must
	// not be below p50 and the slow sample dominates the max bucket.
	for i := 0; i < 99; i++ {
		h.Observe(1 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < float64(500) || p50 > float64(2000) {
		t.Fatalf("p50 = %vns, want ~1µs", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.MeanUs <= 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestPortfolioHeuristic compiles via the portfolio race and requires a
// feasible result with a concrete winning heuristic.
func TestPortfolioHeuristic(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	var resp CompileResponse
	if code := post(t, s, "/compile", map[string]any{"app": "signal", "heuristic": "portfolio"}, &resp); code != http.StatusOK {
		t.Fatalf("portfolio compile: status %d", code)
	}
	if !resp.Feasible {
		t.Fatalf("portfolio found no feasible schedule: %+v", resp)
	}
	if resp.Heuristic == "" || resp.Heuristic == "portfolio" {
		t.Fatalf("winning heuristic not reported: %q", resp.Heuristic)
	}
}

// TestDistinctFrameCountsKeepDistinctPools verifies that requests of
// different frame counts never share RunStates (their arena shapes
// differ) but do share the one compiled plan.
func TestDistinctFrameCountsKeepDistinctPools(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	for _, frames := range []int{1, 2, 4} {
		for i := 0; i < 3; i++ {
			req := map[string]any{"app": "signal", "frames": frames}
			if code := post(t, s, "/simulate", req, nil); code != http.StatusOK {
				t.Fatalf("simulate frames=%d: status %d", frames, code)
			}
		}
	}
	if got := s.metrics.Compiles.Load(); got != 1 {
		t.Fatalf("Compiles = %d across frame counts, want 1 (frames is not a cache key)", got)
	}
	if got := s.metrics.StatesCreated.Load(); got != 3 {
		t.Fatalf("StatesCreated = %d, want 3 (one pool per frame count)", got)
	}
}

// TestResponsesAreSelfConsistent round-trips a scale model through
// /compile and /simulate to check the digest ties them together.
func TestResponsesAreSelfConsistent(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	var comp CompileResponse
	var sim SimulateResponse
	if code := post(t, s, "/compile", map[string]any{"app": "scale:200", "m": 4}, &comp); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	if code := post(t, s, "/simulate", map[string]any{"app": "scale:200", "m": 4}, &sim); code != http.StatusOK {
		t.Fatalf("simulate: status %d", code)
	}
	if comp.Digest != sim.Digest {
		t.Fatalf("digest mismatch: compile %s, simulate %s", comp.Digest, sim.Digest)
	}
	if !sim.Cached {
		t.Fatal("simulate after compile missed the cache")
	}
	if sim.Entries == 0 {
		t.Fatalf("scale model executed nothing: %+v", sim)
	}
	_ = fmt.Sprintf("%+v", sim) // keep fmt imported alongside future debugging
}

// TestReleaseStateIsIdempotent pins the free list's hand-back: a second
// release of the same state does not park it twice, so two later
// acquisitions get two distinct states, and the recycled one is reused.
func TestReleaseStateIsIdempotent(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	model, err := s.model("signal")
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.compileEntry(model, 2, "alap-edf")
	if err != nil {
		t.Fatal(err)
	}
	rs := e.AcquireState(1)
	e.ReleaseState(1, rs)
	e.ReleaseState(1, rs)
	a, b := e.AcquireState(1), e.AcquireState(1)
	if a == b {
		t.Fatal("double release parked one state twice: two acquisitions share it")
	}
	if a != rs && b != rs {
		t.Fatal("released state was not reused")
	}
	if got := s.metrics.StatesCreated.Load(); got != 2 {
		t.Fatalf("StatesCreated = %d, want 2 (one recycled, one fresh)", got)
	}
}

// TestFreeListBoundedAcrossFrameCounts pins the free list's bound: the
// states an entry keeps, parked plus in flight, never exceed its peak
// concurrency, whatever frame counts the requests sweep. One client
// stepping through frame counts holds one state, not one per count.
func TestFreeListBoundedAcrossFrameCounts(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Options{})
	e, _, err := s.resolve(&jobRequest{App: "signal", M: 2, Heuristic: "alap-edf"})
	if err != nil {
		t.Fatal(err)
	}
	parked := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.free)
	}

	// One client: a sweep over 64 frame counts keeps one state.
	const sweep = 64
	for frames := 1; frames <= sweep; frames++ {
		req := map[string]any{"app": "signal", "frames": frames}
		if code := post(t, s, "/simulate", req, nil); code != http.StatusOK {
			t.Fatalf("simulate frames=%d: status %d", frames, code)
		}
		if got := parked(); got != 1 {
			t.Fatalf("after frames=%d: %d parked states, want 1", frames, got)
		}
	}
	if got := s.metrics.StatesCreated.Load(); got != sweep {
		t.Fatalf("StatesCreated = %d over the sweep, want %d", got, sweep)
	}
	// The last frame count's state is the one kept, and it is reused.
	if code := post(t, s, "/simulate", map[string]any{"app": "signal", "frames": sweep}, nil); code != http.StatusOK {
		t.Fatalf("simulate frames=%d: status %d", sweep, code)
	}
	if got := s.metrics.StatesCreated.Load(); got != sweep {
		t.Fatalf("repeating frames=%d created a state: StatesCreated = %d", sweep, got)
	}

	// Three concurrent holders raise the bound to three; a later
	// sequential sweep over other frame counts keeps it there.
	held := []*plan.RunState{e.AcquireState(101), e.AcquireState(102), e.AcquireState(103)}
	for i, rs := range held {
		e.ReleaseState(101+i, rs)
	}
	if got := parked(); got != 3 {
		t.Fatalf("%d parked states after three concurrent holders, want 3", got)
	}
	for frames := 200; frames < 200+sweep; frames++ {
		e.ReleaseState(frames, e.AcquireState(frames))
		if got := parked(); got > 3 {
			t.Fatalf("after frames=%d: %d parked states, want at most 3", frames, got)
		}
	}
	// Parked states of the most recent counts survive; the oldest went.
	before := s.metrics.StatesCreated.Load()
	e.ReleaseState(200+sweep-1, e.AcquireState(200+sweep-1))
	if got := s.metrics.StatesCreated.Load(); got != before {
		t.Fatalf("the newest frame count's state was dropped: %d new states", got-before)
	}
}
