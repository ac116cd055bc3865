package main

import (
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/cli"
	"repro/internal/rational"
	"repro/internal/serve"
	"repro/internal/taskgraph"
)

func TestSporadicTableMatchesModel(t *testing.T) {
	m, err := cli.LoadModel(replayApp)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.DeriveOpts(m.Net, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tg.Hyperperiod; !got.Equal(rational.Milli(fmsHyperperiodMs)) {
		t.Errorf("hyperperiod %v, table says %d ms", got, fmsHyperperiodMs)
	}
	sporadic := 0
	for _, p := range m.Net.Processes() {
		if p.IsSporadic() {
			sporadic++
		}
	}
	if sporadic != len(fmsSporadics) {
		t.Errorf("model has %d sporadic processes, table %d", sporadic, len(fmsSporadics))
	}
	for _, sp := range fmsSporadics {
		p := m.Net.Process(sp.name)
		if p == nil || !p.IsSporadic() {
			t.Errorf("%s is not a sporadic process of %s", sp.name, replayApp)
			continue
		}
		if p.Gen.Burst != sp.burst || !p.Gen.Period.Equal(rational.Milli(sp.periodMs)) {
			t.Errorf("%s: model burst %d per %v, table %d per %d ms", sp.name, p.Gen.Burst, p.Gen.Period, sp.burst, sp.periodMs)
		}
		if tp := tg.ServerPeriod[sp.name]; !tp.Equal(rational.Milli(sp.serverMs)) {
			t.Errorf("%s: server period %v, table %d ms", sp.name, tp, sp.serverMs)
		}
	}
}

// TestEventSetsAccepted sends generated sets to the daemon's handler and
// checks, against the derived task graph, that no event falls in the last
// frame's final server window.
func TestEventSetsAccepted(t *testing.T) {
	m, err := cli.LoadModel(replayApp)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.DeriveOpts(m.Net, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := tg.Hyperperiod.MulInt(replayFrames)
	srv := serve.NewServer(serve.Options{})
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			set := genEventSet(rng, replayFrames)
			if set.eventCount() == 0 {
				t.Fatalf("seed %d: empty event set", seed)
			}
			for proc, times := range set {
				lastWindow := horizon.Sub(tg.ServerPeriod[proc])
				for _, ts := range times {
					v, err := rational.Parse(ts)
					if err != nil {
						t.Fatal(err)
					}
					if !v.Less(lastWindow) {
						t.Errorf("seed %d: %s event at %v is in the final server window from %v", seed, proc, v, lastWindow)
					}
				}
			}
			r := newRequest(kindSimulate, jobRequest{App: replayApp, M: replayM, Heuristic: "alap-edf", Frames: replayFrames, Events: set}, -1)
			if status, body := serveOnce(srv, r); status != http.StatusOK {
				t.Errorf("seed %d set %d: status %d: %s", seed, i, status, body)
			}
		}
	}
}
