//go:build refgen

// This file recomputes testdata/reference.json from the repository's
// reference oracles. It is behind the refgen build tag so that the
// benchmark keeps building when those oracles move:
//
//	go test -tags refgen -run TestReference .           # compare
//	go test -tags refgen -run TestReference . -update   # rewrite

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/rational"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

var update = flag.Bool("update", false, "rewrite testdata/reference.json")

// oracle answers reference queries for one model.
type oracle struct {
	model *cli.Model
	tg    *taskgraph.TaskGraph
	sched map[string]*sched.Schedule
}

func newOracle(t *testing.T, app string) *oracle {
	m, err := cli.LoadModel(app)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.DeriveOpts(m.Net, taskgraph.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{model: m, tg: tg, sched: map[string]*sched.Schedule{}}
}

func (o *oracle) schedule(t *testing.T, r request) *sched.Schedule {
	if s, ok := o.sched[r.compileKey()]; ok {
		return s
	}
	h, err := cli.ParseHeuristic(r.job.Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListScheduleReference(o.tg, r.job.M, h)
	if err != nil {
		t.Fatalf("%s: %v", r.compileKey(), err)
	}
	o.sched[r.compileKey()] = s
	return s
}

func (o *oracle) compile(t *testing.T, r request) compileAnswer {
	s := o.schedule(t, r)
	return compileAnswer{
		Jobs:        len(o.tg.Jobs),
		Hyperperiod: o.tg.Hyperperiod.String(),
		Makespan:    s.Makespan().String(),
		Feasible:    s.ValidateReference() == nil,
	}
}

func (o *oracle) simulate(t *testing.T, r request) simulateAnswer {
	events := map[string][]rational.Rat{}
	for proc, times := range r.job.Events {
		for _, ts := range times {
			v, err := rational.Parse(ts)
			if err != nil {
				t.Fatal(err)
			}
			events[proc] = append(events[proc], v)
		}
	}
	rep, err := rt.RunReference(o.schedule(t, r), rt.Config{
		Frames:         r.job.Frames,
		SporadicEvents: events,
		Inputs:         o.model.Inputs(r.job.Frames),
	})
	if err != nil {
		t.Fatalf("%s: %v", r.simulateKey(), err)
	}
	out := simulateAnswer{
		Entries:     len(rep.Entries),
		Misses:      len(rep.Misses),
		Skipped:     len(rep.Skipped),
		Makespan:    rep.Makespan.String(),
		MaxLateness: rep.MaxLateness.String(),
		Outputs:     map[string]int{},
	}
	for ch, s := range rep.Outputs {
		out.Outputs[ch] = len(s)
	}
	return out
}

func TestReference(t *testing.T) {
	ref := reference{
		PoolDigest: poolDigest(replayPool()),
		Compile:    map[string]compileAnswer{},
		Simulate:   map[string]simulateAnswer{},
	}
	oracles := map[string]*oracle{}
	add := func(r request) {
		o, ok := oracles[r.job.App]
		if !ok {
			o = newOracle(t, r.job.App)
			oracles[r.job.App] = o
		}
		ref.Compile[r.compileKey()] = o.compile(t, r)
		if r.kind == kindSimulate {
			ref.Simulate[r.simulateKey()] = o.simulate(t, r)
		}
	}
	pool := replayPool()
	for i := range pool {
		add(replayRequest(pool, i))
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range append(w.warmup, w.streams...) {
			for _, r := range rs {
				add(r)
			}
		}
	}

	got, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "reference.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, referenceJSON) {
		t.Fatalf("%s is stale; rerun with -update", path)
	}
}
