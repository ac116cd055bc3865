package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// newClient returns an HTTP client that holds exactly one keep-alive
// connection, so a closed loop on it is one connection to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// tally is what closed loops observed.
type tally struct {
	ok        [numKinds][]obs
	attempted int
	failed    int
	errs      []string // the first few failures
}

func (t *tally) add(o tally) {
	for k := range t.ok {
		t.ok[k] = append(t.ok[k], o.ok[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// completions lists when every successful request completed.
func (t *tally) completions() []time.Duration {
	var out []time.Duration
	for _, kindObs := range t.ok {
		for _, o := range kindObs {
			out = append(out, o.at)
		}
	}
	return out
}

// maxErrs bounds the failures one loop keeps for the report.
const maxErrs = 5

// send posts one request and reads the whole response; the latency
// covers the round trip and reading the body.
func send(c *http.Client, base string, r request) (status int, body []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := c.Post(base+r.kind.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

// loop is one closed-loop client: it sends stream's requests in order,
// cycling, each only after the previous answer, until deadline (one pass
// when deadline is zero), and checks every response. wantCached, when
// set, gives the cache outcome each request kind must show.
func loop(c *http.Client, base string, stream []request, start, deadline time.Time, ref *reference, wantCached func(kind) bool) tally {
	var t tally
	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i == len(stream) {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		r := stream[i%len(stream)]
		t.attempted++
		status, body, lat, err := send(c, base, r)
		at := time.Since(start)
		var cached bool
		if err == nil {
			cached, err = ref.check(r, status, body)
		}
		if err == nil && wantCached != nil && cached != wantCached(r.kind) {
			err = fmt.Errorf("%s %s: cached=%v, the workload needs %v", r.kind, r.compileKey(), cached, wantCached(r.kind))
		}
		if err != nil {
			t.failed++
			if len(t.errs) < maxErrs {
				t.errs = append(t.errs, err.Error())
			}
			continue
		}
		t.ok[r.kind] = append(t.ok[r.kind], obs{at: at, lat: lat})
	}
	return t
}

// runLoops runs one closed loop per client concurrently from start and
// merges their tallies; elapsed runs from start until the last loop
// returned.
func runLoops(clients []*http.Client, base string, streams [][]request, start, deadline time.Time, ref *reference, wantCached func(kind) bool) (tally, time.Duration) {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = loop(clients[i], base, streams[i], start, deadline, ref, wantCached)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	for _, t := range tallies {
		all.add(t)
	}
	for _, e := range all.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return all, elapsed
}
