// Differential harness for the compiled execution plans: the interned
// engines behind core.RunZeroDelay, rt.Run and rt.RunConcurrent must agree
// byte-for-byte with the string-keyed reference implementations retained as
// oracles (core.RunZeroDelayReference, rt.RunReference,
// rt.RunConcurrentReference). Checked on the three paper applications and
// on a corpus of random networks; runtime reports are compared through
// their canonical JSON serialization, zero-delay results field by field.
package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/nettest"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// reportJSON serializes a runtime report canonically.
func reportJSON(t *testing.T, rep *rt.Report) string {
	t.Helper()
	text, err := export.MarshalIndent(export.Report(rep))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// comparePlanAgainstReferences runs all three compiled engines and their
// references on one (net, schedule, config) case and demands agreement.
func comparePlanAgainstReferences(t *testing.T, net *core.Network, s *sched.Schedule,
	horizon core.Time, cfg rt.Config, zopts core.ZeroDelayOptions) {
	t.Helper()

	// Zero-delay: the interned CompiledNet engine against the string-keyed
	// reference. Field-by-field equality covers the job sequence, the
	// action trace, the outputs and the final channel states.
	zgot, err := core.RunZeroDelay(net, horizon, zopts)
	if err != nil {
		t.Fatalf("compiled zero-delay: %v", err)
	}
	zwant, err := core.RunZeroDelayReference(net, horizon, zopts)
	if err != nil {
		t.Fatalf("reference zero-delay: %v", err)
	}
	if !reflect.DeepEqual(zgot, zwant) {
		t.Fatalf("compiled zero-delay diverges from reference: %s",
			core.DiffSamples(zwant.Outputs, zgot.Outputs))
	}

	// Discrete-event runtime.
	rgot, err := rt.Run(s, cfg)
	if err != nil {
		t.Fatalf("compiled rt.Run: %v", err)
	}
	rwant, err := rt.RunReference(s, cfg)
	if err != nil {
		t.Fatalf("rt.RunReference: %v", err)
	}
	if got, want := reportJSON(t, rgot), reportJSON(t, rwant); got != want {
		t.Fatalf("compiled run report JSON diverges from reference")
	}
	if !reflect.DeepEqual(rgot.Outputs, rwant.Outputs) {
		t.Fatalf("compiled run outputs diverge: %s",
			core.DiffSamples(rwant.Outputs, rgot.Outputs))
	}

	// Goroutine-per-processor runtime.
	cgot, err := rt.RunConcurrent(s, cfg)
	if err != nil {
		t.Fatalf("compiled rt.RunConcurrent: %v", err)
	}
	cwant, err := rt.RunConcurrentReference(s, cfg)
	if err != nil {
		t.Fatalf("rt.RunConcurrentReference: %v", err)
	}
	if got, want := reportJSON(t, cgot), reportJSON(t, cwant); got != want {
		t.Fatalf("compiled concurrent report JSON diverges from reference")
	}
}

// TestPlanMatchesReferencePaperApps pins the compiled engines to the
// references on the paper's three applications, with sporadic events on
// signal and FMS and the MPPA overhead model on FFT.
func TestPlanMatchesReferencePaperApps(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *core.Network
		m      int
		frames int
		inputs map[string][]core.Value
		events map[string][]core.Time
		over   platform.OverheadModel
	}{
		{
			name: "signal", build: signal.New, m: 2, frames: 7,
			inputs: signal.Inputs(7),
			events: map[string][]core.Time{signal.CoefB: {rational.Milli(50), rational.Milli(400)}},
		},
		{
			name: "fft", build: fft.New, m: 2, frames: 3,
			inputs: fft.Inputs([]fft.Frame{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 4, 6, 8}}),
			over:   platform.MPPAFFTOverhead(),
		},
		{
			name: "fms", build: fms.New, m: 1, frames: 1,
			inputs: fms.Inputs(50),
			events: map[string][]core.Time{
				fms.AnemoConfig:      {rational.Milli(40)},
				fms.MagnDeclinConfig: {rational.Milli(500)},
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			net := c.build()
			tg, err := taskgraph.Derive(net)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.FindFeasible(tg, c.m)
			if err != nil {
				t.Fatal(err)
			}
			horizon := tg.Hyperperiod.MulInt(int64(c.frames))
			cfg := rt.Config{
				Frames: c.frames, SporadicEvents: c.events,
				Inputs: c.inputs, Overhead: c.over,
			}
			zopts := core.ZeroDelayOptions{
				SporadicEvents: c.events, Inputs: c.inputs, RecordTrace: true,
			}
			comparePlanAgainstReferences(t, net, s, horizon, cfg, zopts)
		})
	}
}

// TestPlanPipelinedFMSMatchesReference runs FMS over several overlapping
// frames (Pipelined: true), the one mode that reads the plan's interned
// related-pid lists: every job waits for the previous frame's jobs of its
// FP'-related processes. The compiled report must match rt.RunReference,
// which evaluates the same rule through string-keyed Related lookups,
// byte for byte, and the outputs must still be the zero-delay ones.
func TestPlanPipelinedFMSMatchesReference(t *testing.T) {
	t.Parallel()
	const frames = 4
	net := fms.New()
	base, err := taskgraph.Derive(net)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.DeriveOpts(net, taskgraph.Options{DeadlineSlack: base.Hyperperiod})
	if err != nil {
		t.Fatal(err)
	}
	// One processor per process: static chains then never order two
	// processes, so only the cross-frame rule orders related ones.
	s, err := sched.PipelineSchedule(tg, len(net.Processes()))
	if err != nil {
		t.Fatal(err)
	}
	h := tg.Hyperperiod
	events := map[string][]core.Time{
		fms.AnemoConfig:      {rational.Milli(40), h.Add(rational.Milli(40))},
		fms.MagnDeclinConfig: {rational.Milli(500), h.MulInt(2).Add(rational.Milli(500))},
	}
	inputs := fms.Inputs(400)
	// Even-frame jobs overrun by H/2..H/6, so their tails spill into the
	// next frame and the cross-frame rule decides start times there.
	slowEven := func(j *taskgraph.Job, frame int) core.Time {
		if frame%2 == 0 {
			return j.WCET.Add(h.Div(rational.New(int64(2+j.Index%5), 1)))
		}
		return j.WCET
	}
	cfg := rt.Config{Frames: frames, Pipelined: true, SporadicEvents: events, Inputs: inputs, Exec: slowEven}
	got, err := rt.Run(s, cfg)
	if err != nil {
		t.Fatalf("compiled pipelined run: %v", err)
	}
	want, err := rt.RunReference(s, cfg)
	if err != nil {
		t.Fatalf("reference pipelined run: %v", err)
	}
	if g, w := reportJSON(t, got), reportJSON(t, want); g != w {
		t.Fatalf("compiled pipelined FMS report JSON diverges from reference")
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("compiled pipelined FMS outputs diverge: %s",
			core.DiffSamples(want.Outputs, got.Outputs))
	}
	ref, err := core.RunZeroDelay(net, h.MulInt(frames), core.ZeroDelayOptions{
		SporadicEvents: events, Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.SamplesEqual(ref.Outputs, got.Outputs) {
		t.Fatalf("pipelined FMS run diverges from zero-delay: %s",
			core.DiffSamples(ref.Outputs, got.Outputs))
	}
}

// TestPlanMatchesReferenceRandomNetworks sweeps ≥50 random networks (raise
// with FPPN_FUZZ_TRIALS): every compiled engine must agree with its
// reference under random sporadic events, external inputs and
// execution-time jitter.
func TestPlanMatchesReferenceRandomNetworks(t *testing.T) {
	const frames = 2
	type planCase struct {
		net     *core.Network
		tg      *taskgraph.TaskGraph
		horizon core.Time
		events  map[string][]core.Time
		inputs  map[string][]core.Value
		m       int
	}
	trials := trialCount(t, 50)
	rng := rand.New(rand.NewSource(31415))
	cases := make([]planCase, trials)
	for trial := range cases {
		net := nettest.Random(rng, nettest.Options{})
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("trial %d: derive: %v", trial, err)
		}
		horizon := tg.Hyperperiod.MulInt(frames)
		cases[trial] = planCase{
			net:     net,
			tg:      tg,
			horizon: horizon,
			events:  nettest.RandomEvents(rng, net, horizon),
			inputs:  nettest.Inputs(net, 200),
			m:       2 + rng.Intn(3),
		}
	}

	for trial, c := range cases {
		trial, c := trial, c
		t.Run(fmt.Sprintf("net%03d", trial), func(t *testing.T) {
			t.Parallel()
			s, err := sched.FindFeasible(c.tg, c.m)
			if err != nil {
				s, err = sched.FindFeasible(c.tg, len(c.tg.Jobs))
				if err != nil {
					t.Fatalf("no feasible schedule at all: %v", err)
				}
			}
			jitter, err := platform.JitterExec(int64(trial), rational.New(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			cfg := rt.Config{
				Frames: frames, SporadicEvents: c.events,
				Inputs: c.inputs, Exec: jitter,
			}
			zopts := core.ZeroDelayOptions{
				SporadicEvents: c.events, Inputs: c.inputs,
				Seed:        int64(trial) - 1, // covers the default order and random extensions
				RecordTrace: trial%3 == 0,
			}
			comparePlanAgainstReferences(t, c.net, s, c.horizon, cfg, zopts)
		})
	}
}
