package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/fms"
	"repro/internal/apps/signal"
	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// relatedCorpus is the paper applications, the 1k-job scale tier and a
// batch of random networks.
func relatedCorpus() map[string]*core.Network {
	nets := map[string]*core.Network{
		"signal":   signal.New(),
		"fft":      fft.New(),
		"fms":      fms.New(),
		"scale:1k": nettest.Scale(rand.New(rand.NewSource(1)), nettest.ScaleOptions{TargetJobs: 1000}),
	}
	rng := rand.New(rand.NewSource(1313))
	for i := 0; i < 24; i++ {
		nets[fmt.Sprintf("random-%02d", i)] = nettest.Random(rng, nettest.Options{})
	}
	return nets
}

// TestRelatedPidsMatchRelated pins the interned related-pid lists against
// the string-keyed oracle: relPids[a] is exactly {b : tg.Related(a, b)},
// ascending, for every pid pair.
func TestRelatedPidsMatchRelated(t *testing.T) {
	t.Parallel()
	for name, net := range relatedCorpus() {
		tg, err := taskgraph.Derive(net)
		if err != nil {
			t.Fatalf("%s: derive: %v", name, err)
		}
		s, err := sched.ListSchedule(tg, 2, sched.ALAPEDF)
		if err != nil {
			t.Fatalf("%s: schedule: %v", name, err)
		}
		p, err := Compile(s)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		np := p.cn.NumProcesses()
		if len(p.relPids) != np {
			t.Fatalf("%s: %d related lists for %d processes", name, len(p.relPids), np)
		}
		for a := 0; a < np; a++ {
			var want []int
			for b := 0; b < np; b++ {
				if tg.Related(p.cn.ProcName(a), p.cn.ProcName(b)) {
					want = append(want, b)
				}
			}
			if !slices.Equal(p.relPids[a], want) {
				t.Fatalf("%s: relPids[%d] (%s) = %v, want %v",
					name, a, p.cn.ProcName(a), p.relPids[a], want)
			}
		}
	}
}

// TestProcessesOrderIsPidOrder pins the invariant the interned lists rely
// on: taskgraph.RelatedIndices is indexed in net.Processes() order, and
// that is the compiled network's pid order.
func TestProcessesOrderIsPidOrder(t *testing.T) {
	t.Parallel()
	for name, net := range relatedCorpus() {
		cn, err := core.CompileNetwork(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		procs := net.Processes()
		if cn.NumProcesses() != len(procs) {
			t.Fatalf("%s: %d pids for %d processes", name, cn.NumProcesses(), len(procs))
		}
		for pid, proc := range procs {
			if got := cn.ProcName(pid); got != proc.Name {
				t.Fatalf("%s: pid %d is %q, net.Processes()[%d] is %q", name, pid, got, pid, proc.Name)
			}
		}
	}
}
