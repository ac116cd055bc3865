package feas

import (
	"strings"
	"testing"

	"repro/internal/rational"
	"repro/internal/taskgraph"
)

// Arrivals near the int64 ceiling force the rational fallback, and
// MulInt(m) in grahamReference overflows inside a parallel.ForEach
// worker. Analyze must convert that panic — even one raised on a worker
// goroutine — into its "feas: analysis overflow" error instead of
// crashing the caller.
func TestAnalyzeOverflowReturnsError(t *testing.T) {
	huge := rational.New(int64(1)<<62, 1)
	tg := &taskgraph.TaskGraph{Hyperperiod: huge}
	for i := 0; i < 3; i++ {
		tg.Jobs = append(tg.Jobs, &taskgraph.Job{
			Index: i, Proc: "p", K: int64(i + 1),
			Arrival:  huge,
			Deadline: huge.Add(rational.New(10, 1)),
			WCET:     rational.New(1, 1),
		})
		tg.Succ = append(tg.Succ, nil)
		tg.Pred = append(tg.Pred, nil)
	}
	// Workers 4 fans out even on one CPU; 0 is the GOMAXPROCS default.
	for _, workers := range []int{0, 1, 4} {
		rep, err := Analyze(tg, 2, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: Analyze accepted an overflowing task graph: rep=%v", workers, rep)
		}
		if !strings.Contains(err.Error(), "feas: analysis overflow") {
			t.Fatalf("workers=%d: error %q does not carry the overflow marker", workers, err)
		}
		if rep != nil {
			t.Fatalf("workers=%d: non-nil report alongside the overflow error: %v", workers, rep)
		}
	}
}
