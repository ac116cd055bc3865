package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// kind is a request kind; every latency is reported per kind.
type kind int

const (
	kindSimulate kind = iota
	kindCompile
	kindAnalyze
	numKinds
)

var kindNames = [numKinds]string{"simulate", "compile", "analyze"}

func (k kind) String() string { return kindNames[k] }

// path is the daemon endpoint of the kind.
func (k kind) path() string { return "/" + kindNames[k] }

// heuristics are the four list-scheduling priority orders of the sweeps.
var heuristics = []string{"alap-edf", "b-level", "deadline-monotonic", "edf"}

// jobRequest is the JSON body of /compile, /simulate and /analyze.
type jobRequest struct {
	App       string   `json:"app"`
	M         int      `json:"m"`
	Heuristic string   `json:"heuristic"`
	Frames    int      `json:"frames,omitempty"`
	Events    eventSet `json:"events,omitempty"`
}

// request is one prepared request: its kind, encoded body and the key
// its expected answer is filed under in the reference data.
type request struct {
	kind kind
	job  jobRequest
	body []byte
	// set is the index of the request's event set in the replay pool, or
	// -1 for a request without events.
	set int
}

func newRequest(k kind, job jobRequest, set int) request {
	body, err := json.Marshal(job)
	if err != nil {
		panic(err) // a jobRequest always encodes
	}
	return request{kind: k, job: job, body: body, set: set}
}

// compileKey files a /compile or /analyze answer.
func (r request) compileKey() string {
	return fmt.Sprintf("%s|m%d|%s", r.job.App, r.job.M, r.job.Heuristic)
}

// simulateKey files a /simulate answer.
func (r request) simulateKey() string {
	return fmt.Sprintf("%s|f%d|set%d", r.compileKey(), r.job.Frames, r.set)
}

// workload is one closed-loop traffic mix.
type workload struct {
	// budgetMB is the daemon's -cache-budget-mb.
	budgetMB int64
	// warmup[c] is sent on connection c before the measured window; there
	// is one closed loop, on its own connection, per stream.
	warmup [][]request
	// streams[c] is the request sequence connection c cycles through.
	streams [][]request
	// primary is the kind the end-to-end latency metrics describe, and
	// tailQ the tail quantile reported for it.
	primary kind
	tailQ   float64
	// cycle is the number of primary requests after which the mix of
	// keys is balanced: one block of the sweep order, 1 for replay's
	// random draws. Latencies are taken over whole cycles.
	cycle int
	// missing is true when every primary request must miss the cache
	// (design, scale) and false when none may (replay).
	missing bool
}

// wantCached is the cache outcome a request of kind k must show.
func (w *workload) wantCached(k kind) bool { return k != kindCompile || !w.missing }

var workloadNames = []string{"replay", "design", "scale"}

// Replay traffic parameters.
const (
	replayApp    = "fms"
	replayM      = 2
	replayFrames = 8
	// replayPoolSize event sets are drawn once from replayPoolSeed; the
	// run seed picks which set each request carries. The pool is fixed so
	// that the reference answers can be computed once, by the oracles,
	// and kept in testdata/reference.json.
	replayPoolSize = 128
	replayPoolSeed = 20150309
	// streamLen is the length of each replay connection's request cycle.
	streamLen = 4096
)

// replayConns is the connection count of the replay workload: one per
// core of the 2-core host the benchmark was tuned on.
const replayConns = 2

// smallBudgetMB keeps a couple of FMS entries and less than one scale:10k
// entry, so the design and scale sweeps miss on every /compile.
const smallBudgetMB = 1

// sweepMaxM is the largest processor count of the design and scale sweeps;
// warmM lies outside them.
const (
	sweepMaxM = 16
	warmM     = sweepMaxM + 1
)

// replayPool returns the fixed pool of sporadic event sets.
func replayPool() []eventSet {
	rng := rand.New(rand.NewSource(replayPoolSeed))
	pool := make([]eventSet, replayPoolSize)
	for i := range pool {
		pool[i] = genEventSet(rng, replayFrames)
	}
	return pool
}

func replayRequest(pool []eventSet, set int) request {
	return newRequest(kindSimulate, jobRequest{
		App: replayApp, M: replayM, Heuristic: "alap-edf", Frames: replayFrames, Events: pool[set],
	}, set)
}

// sweepOrder returns the 64 (M, heuristic) keys of a design sweep in a
// seeded Latin-square order: four blocks, each visiting M = 1..16 in one
// seeded order with the heuristics rotated, so that every block holds
// each M once and each heuristic four times, and the whole holds each
// key once. A window that ends mid-sweep then still sees a balanced mix.
func sweepOrder(rng *rand.Rand) [][2]int {
	perm := rng.Perm(sweepMaxM)
	shift := rng.Perm(len(heuristics))
	var out [][2]int
	for _, s := range shift {
		for i, m := range perm {
			out = append(out, [2]int{m + 1, (s + i) % len(heuristics)})
		}
	}
	return out
}

// buildWorkload makes the named workload's requests from the seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "replay":
		pool := replayPool()
		w := &workload{budgetMB: 256, primary: kindSimulate, tailQ: 0.99, cycle: 1}
		for c := 0; c < replayConns; c++ {
			w.warmup = append(w.warmup, []request{replayRequest(pool, rng.Intn(len(pool)))})
			stream := make([]request, streamLen)
			for i := range stream {
				stream[i] = replayRequest(pool, rng.Intn(len(pool)))
			}
			w.streams = append(w.streams, stream)
		}
		return w, nil
	case "design", "scale":
		app := "fms"
		if name == "scale" {
			app = "scale:10k"
		}
		w := &workload{budgetMB: smallBudgetMB, primary: kindCompile, tailQ: 0.9, missing: true,
			cycle: sweepMaxM}
		if name == "scale" {
			w.tailQ = 0.5 // ~2 compiles/s support no tail percentile
		}
		w.warmup = [][]request{{newRequest(kindCompile, jobRequest{App: app, M: warmM, Heuristic: heuristics[0]}, -1)}}
		var stream []request
		for _, k := range sweepOrder(rng) {
			job := jobRequest{App: app, M: k[0], Heuristic: heuristics[k[1]]}
			stream = append(stream, newRequest(kindCompile, job, -1))
			if name == "design" {
				stream = append(stream, newRequest(kindAnalyze, job, -1))
			}
		}
		w.streams = [][]request{stream}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
