package staticflow

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rational"
)

func ms(n int64) core.Time { return rational.Milli(n) }

// stub is a non-Nop behavior carrying the default access profile; the
// static sweep never executes it.
var stub = core.BehaviorFunc(func(*core.JobContext) error { return nil })

// rateMismatch builds a 100 ms writer feeding a 400 ms reader, the
// minimal producer/consumer rate mismatch: four tokens in, one reader
// job per frame.
func rateMismatch(drain bool) *core.Network {
	n := core.NewNetwork("rate-mismatch")
	n.AddPeriodic("w", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("r", ms(400), ms(400), ms(1), stub)
	c := n.Connect("w", "r", "x", core.FIFO)
	if drain {
		c.Drain()
	}
	n.Priority("w", "r")
	return n
}

func TestBuffersDrainBalancesRateMismatch(t *testing.T) {
	p, err := Buffers(rateMismatch(true), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Channel("x")
	// Frame 1: the reader's single t=0 job runs after one write (1
	// token), then 3 more writes pile up; frame 2 opens with a write
	// before the drain, so occupancy peaks at 4.
	if c.HighWater != 4 {
		t.Fatalf("HighWater = %d, want 4", c.HighWater)
	}
	if want := []int{4, 4}; !reflect.DeepEqual(c.Produced, want) {
		t.Fatalf("Produced = %v, want %v", c.Produced, want)
	}
	if want := []int{1, 4}; !reflect.DeepEqual(c.Consumed, want) {
		t.Fatalf("Consumed = %v, want %v", c.Consumed, want)
	}
	if want := []int{3, 3}; !reflect.DeepEqual(c.EndOfFrameBacklog, want) {
		t.Fatalf("EndOfFrameBacklog = %v, want %v", c.EndOfFrameBacklog, want)
	}
	if c.Unbalanced {
		t.Fatal("draining reader reported unbalanced")
	}
}

func TestBuffersDetectUnbalancedChannel(t *testing.T) {
	p, err := Buffers(rateMismatch(false), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Channel("x")
	if !c.Unbalanced {
		t.Fatal("single-token reader at 1/4 the write rate not reported unbalanced")
	}
	if want := []int{3, 6, 9}; !reflect.DeepEqual(c.EndOfFrameBacklog, want) {
		t.Fatalf("EndOfFrameBacklog = %v, want %v", c.EndOfFrameBacklog, want)
	}
	if got, want := p.Unbalanced(), []string{"x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Unbalanced() = %v, want %v", got, want)
	}
}

func TestBuffersGatedWriteFollowsReadSuccess(t *testing.T) {
	// b forwards a token on y only when its 400 ms upstream delivered
	// one on x, so y carries exactly one token per frame even though b
	// runs at 100 ms.
	n := core.NewNetwork("gated")
	n.AddPeriodic("a", ms(400), ms(400), ms(1), stub)
	n.AddPeriodic("b", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("c", ms(400), ms(400), ms(1), stub)
	n.Connect("a", "b", "x", core.FIFO)
	n.Connect("b", "c", "y", core.FIFO).GatedBy("x")
	n.Priority("a", "b")
	n.Priority("b", "c")
	p, err := Buffers(n, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := p.Channel("y")
	if want := []int{1, 1}; !reflect.DeepEqual(y.Produced, want) {
		t.Fatalf("gated Produced = %v, want %v", y.Produced, want)
	}
	if y.HighWater != 1 {
		t.Fatalf("gated HighWater = %d, want 1", y.HighWater)
	}
	if y.Unbalanced {
		t.Fatal("gated channel reported unbalanced")
	}
}

func TestBuffersBlackboardBound(t *testing.T) {
	n := core.NewNetwork("boards")
	n.AddPeriodic("w", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("r", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("idle", ms(100), ms(100), ms(1), core.NopBehavior)
	n.Connect("w", "r", "written", core.Blackboard)
	n.ConnectInit("idle", "r", "seeded", 7)
	n.Priority("w", "r")
	n.Priority("idle", "r")
	p, err := Buffers(n, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := p.Bound("written"); !ok || b != 1 {
		t.Fatalf("written blackboard bound = %d,%v, want 1,true", b, ok)
	}
	// A NopBehavior writer never writes, but the initial value alone
	// bounds the board to 1.
	if b, ok := p.Bound("seeded"); !ok || b != 1 {
		t.Fatalf("seeded blackboard bound = %d,%v, want 1,true", b, ok)
	}
	if _, ok := p.Bound("missing"); ok {
		t.Fatal("Bound reported ok for a channel that does not exist")
	}
}

func TestBuffersRejectsIllFormedInput(t *testing.T) {
	if _, err := Buffers(rateMismatch(true), 1, nil); err == nil {
		t.Fatal("frames=1 accepted; balance needs at least 2 frames")
	}
	n := core.NewNetwork("uncovered")
	n.AddPeriodic("w", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("r", ms(100), ms(100), ms(1), stub)
	n.Connect("w", "r", "x", core.FIFO) // no FP edge: FPPN003
	if _, err := Buffers(n, 2, nil); err == nil {
		t.Fatal("uncovered channel accepted; zero-delay order is undefined")
	}
}

func TestSuggestFPFlipsToPreserveAcyclicity(t *testing.T) {
	// Channel a -> b is uncovered while b already reaches a through
	// b -> c -> a, so the data-flow orientation a -> b would close a
	// cycle; the suggestion must flip to b -> a.
	n := core.NewNetwork("flip")
	n.AddPeriodic("a", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("b", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("c", ms(100), ms(100), ms(1), stub)
	n.Connect("a", "b", "x", core.FIFO)
	n.Priority("b", "c")
	n.Priority("c", "a")
	got := SuggestFP(n)
	want := []Suggestion{{Channel: "x", Hi: "b", Lo: "a"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SuggestFP = %v, want %v", got, want)
	}
	n.Priority("b", "a")
	for _, p := range n.Problems() {
		t.Fatalf("network still ill-formed after applying suggestion: %v", p.Message)
	}
}

func TestSuggestFPDeduplicatesSharedEndpoints(t *testing.T) {
	n := core.NewNetwork("dedup")
	n.AddPeriodic("a", ms(100), ms(100), ms(1), stub)
	n.AddPeriodic("b", ms(100), ms(100), ms(1), stub)
	n.Connect("a", "b", "x", core.FIFO)
	n.Connect("a", "b", "y", core.FIFO)
	n.Connect("b", "a", "back", core.Blackboard)
	got := SuggestFP(n)
	// One edge covers all three channels between a and b.
	want := []Suggestion{{Channel: "x", Hi: "a", Lo: "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SuggestFP = %v, want %v", got, want)
	}
}

func TestDemandTwoHeavyProcesses(t *testing.T) {
	// Two processes with WCET equal to their shared deadline can never
	// share one processor: the demand bound must say 2.
	n := core.NewNetwork("heavy")
	n.AddPeriodic("h1", ms(100), ms(100), ms(100), stub)
	n.AddPeriodic("h2", ms(100), ms(100), ms(100), stub)
	rep, err := Demand(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LowerBound != 2 {
		t.Fatalf("LowerBound = %d, want 2", rep.LowerBound)
	}
	if v := rep.Violations(1); len(v) == 0 {
		t.Fatal("Violations(1) empty; the [0,100] window demands 200 ms")
	}
	if v := rep.Violations(2); len(v) != 0 {
		t.Fatalf("Violations(2) = %v, want none", v)
	}
	if rep.Critical.Processors != 2 {
		t.Fatalf("Critical.Processors = %d, want 2", rep.Critical.Processors)
	}
}
