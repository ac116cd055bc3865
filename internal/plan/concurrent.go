package plan

// This file implements Plan.RunConcurrent: the static-order policy executed
// by one goroutine per processor against a virtual clock, the shape of the
// paper's multi-thread Linux runtime. Unlike Run (an exact discrete-event
// computation), the goroutines here really race with each other; only the
// synchronize-invocation and synchronize-precedence waits of Section IV
// order them. Tests assert that the outputs are nevertheless identical to
// the zero-delay reference — Proposition 2.1 made executable.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// vclock is a cooperative virtual clock shared by the processor goroutines.
// Time advances only when every live goroutine is blocked, jumping to the
// earliest requested wake-up.
type vclock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      Time
	live     int // goroutines not yet finished
	blocked  int // goroutines currently inside a wait
	timeReqs map[int]Time
	// doneWaits records, per blocked goroutine, the completion flag it is
	// waiting for. A waiter whose flag is already set still counts as
	// blocked until it reacquires the mutex after a broadcast; advancing
	// time past that window would be wrong, so maybeAdvance treats such
	// waiters as runnable.
	doneWaits map[int]int64
	done      []bool // (frame*jobs + index) completion flags
	err       error
}

func newVclock(procs, flags int) *vclock {
	c := &vclock{
		live:      procs,
		timeReqs:  make(map[int]Time),
		doneWaits: make(map[int]int64),
		done:      make([]bool, flags),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// maybeAdvance runs with c.mu held: when every live goroutine is blocked
// and none of them can already make progress, either advance to the
// earliest requested time or declare a deadlock.
func (c *vclock) maybeAdvance() {
	if c.live == 0 || c.blocked < c.live {
		return
	}
	for _, key := range c.doneWaits {
		if c.done[key] {
			return // a waiter is about to wake and run at the current time
		}
	}
	if len(c.timeReqs) == 0 {
		if c.err == nil {
			c.err = fmt.Errorf("rt: virtual-clock deadlock: all processors wait on precedence that never resolves")
		}
		c.cond.Broadcast()
		return
	}
	min := Time{}
	first := true
	for _, t := range c.timeReqs {
		if first || t.Less(min) {
			min = t
			first = false
		}
	}
	if c.now.Less(min) {
		c.now = min
	}
	c.cond.Broadcast()
}

// waitUntil blocks the goroutine id until virtual time reaches t.
func (c *vclock) waitUntil(id int, t Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.now.Less(t) && c.err == nil {
		c.timeReqs[id] = t
		c.blocked++
		c.maybeAdvance()
		// maybeAdvance may have advanced the clock to our own request
		// (we were the last goroutine to block); its broadcast happened
		// before we entered Wait, so re-check to avoid a lost wake-up.
		if c.now.Less(t) && c.err == nil {
			c.cond.Wait()
		}
		c.blocked--
		delete(c.timeReqs, id)
	}
	return c.err
}

// waitDone blocks the goroutine id until the given job instance has
// completed.
func (c *vclock) waitDone(id int, key int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.done[key] && c.err == nil {
		c.doneWaits[id] = key
		c.blocked++
		c.maybeAdvance()
		// Re-check: maybeAdvance may have declared a deadlock error,
		// whose broadcast precedes our Wait.
		if !c.done[key] && c.err == nil {
			c.cond.Wait()
		}
		c.blocked--
		delete(c.doneWaits, id)
	}
	return c.err
}

// markDone flags a job instance complete and wakes all waiters.
func (c *vclock) markDone(key int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = true
	c.cond.Broadcast()
}

// Now returns the current virtual time.
func (c *vclock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Err returns the run's failure, if any, under the clock's lock.
func (c *vclock) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail aborts the run with an error.
func (c *vclock) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
}

// finish retires a goroutine from the clock's accounting.
func (c *vclock) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	c.maybeAdvance()
}

// RunConcurrent executes the compiled plan with one goroutine per
// processor. Functionally it is equivalent to Run; timing-wise it produces
// the same start/finish instants in virtual time. It exists to demonstrate
// (and stress under the race detector) that the FPPN synchronization rules
// alone — not any global sequentialization — deliver deterministic outputs.
func (rs *RunState) RunConcurrent(cfg Config) (*Report, error) {
	p := rs.p
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	if cfg.Pipelined {
		return nil, fmt.Errorf("rt: RunConcurrent does not support pipelined frames; use Run")
	}
	if rs.Released() {
		return nil, fmt.Errorf("rt: RunConcurrent on a RunState parked in its owner's pool; Acquire it first")
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	flat, err := p.inv.planInto(&rs.scratch, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, err
	}
	machine, err := rs.acquireMachine(core.MachineOptions{Inputs: cfg.Inputs})
	if err != nil {
		return nil, err
	}

	n := p.n
	tg := p.tg
	clock := newVclock(p.S.M, cfg.Frames*n)
	key := func(frame, index int) int64 { return int64(frame)*int64(n) + int64(index) }

	var dataMu sync.Mutex // serializes Machine access between processors

	type result struct {
		entries []sched.GanttEntry
		misses  []Miss
		skipped []Skip
	}
	results := make([]result, p.S.M)
	var wg sync.WaitGroup

	for proc := 0; proc < p.S.M; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			defer clock.finish()
			res := &results[proc]
			for f := 0; f < cfg.Frames; f++ {
				base := p.h.MulInt(int64(f))
				avail := base.Add(cfg.Overhead.FrameOverhead(f, n))
				if err := clock.waitUntil(proc, avail); err != nil {
					return
				}
				invs := flat[f*n : (f+1)*n]
				for _, i := range p.procOrder[proc] {
					j := tg.Jobs[i]
					inv := &invs[i]
					// Synchronize invocation.
					if err := clock.waitUntil(proc, inv.Ready); err != nil {
						return
					}
					// Synchronize precedence.
					for _, pre := range tg.Pred[i] {
						if err := clock.waitDone(proc, key(f, pre)); err != nil {
							return
						}
					}
					if inv.Skip {
						res.skipped = append(res.skipped, Skip{Job: j, Frame: f})
						clock.markDone(key(f, i))
						continue
					}
					// Execute.
					start := clock.Now()
					dataMu.Lock()
					// The per-process invocation count must follow the
					// frame-global job order; precedence sync already
					// guarantees it for every pair of jobs that share
					// state, so any interleaving of the remaining
					// (unrelated) jobs is safe here.
					execErr := machine.ExecJobID(p.jobPid[i], inv.Ready)
					dataMu.Unlock()
					if execErr != nil {
						clock.fail(execErr)
						return
					}
					c := exec(j, f)
					if c.Sign() < 0 {
						clock.fail(fmt.Errorf("rt: negative execution time %v for %s", c, j.Name()))
						return
					}
					end := start.Add(c)
					if err := clock.waitUntil(proc, end); err != nil {
						return
					}
					res.entries = append(res.entries, sched.GanttEntry{
						Proc: proc, Label: p.jobName[i], Start: start, End: end,
					})
					if deadline := base.Add(j.Deadline); deadline.Less(end) {
						res.misses = append(res.misses, Miss{Job: j, Frame: f, Finish: end, Deadline: deadline})
					}
					clock.markDone(key(f, i))
				}
			}
		}(proc)
	}
	wg.Wait()
	if err := clock.Err(); err != nil {
		return nil, err
	}

	report := &rs.report
	*report = Report{Schedule: p.S, Frames: cfg.Frames}
	report.Entries = rs.entries[:0]
	report.Misses = rs.misses[:0]
	report.Skipped = rs.skipped[:0]
	for _, res := range results {
		report.Entries = append(report.Entries, res.entries...)
		report.Misses = append(report.Misses, res.misses...)
		report.Skipped = append(report.Skipped, res.skipped...)
	}
	sort.Slice(report.Entries, func(a, b int) bool {
		ea, eb := report.Entries[a], report.Entries[b]
		if !ea.Start.Equal(eb.Start) {
			return ea.Start.Less(eb.Start)
		}
		if ea.Proc != eb.Proc {
			return ea.Proc < eb.Proc
		}
		return ea.Label < eb.Label
	})
	sort.Slice(report.Misses, func(a, b int) bool {
		ma, mb := report.Misses[a], report.Misses[b]
		if ma.Frame != mb.Frame {
			return ma.Frame < mb.Frame
		}
		return ma.Job.Index < mb.Job.Index
	})
	sort.Slice(report.Skipped, func(a, b int) bool {
		sa, sb := report.Skipped[a], report.Skipped[b]
		if sa.Frame != sb.Frame {
			return sa.Frame < sb.Frame
		}
		return sa.Job.Index < sb.Job.Index
	})
	for _, e := range report.Entries {
		if report.Makespan.Less(e.End) {
			report.Makespan = e.End
		}
	}
	for _, m := range report.Misses {
		if late := m.Finish.Sub(m.Deadline); report.MaxLateness.Less(late) {
			report.MaxLateness = late
		}
	}
	// Keep the grown arenas, then match the historical surface of this
	// entry point: every report slice here is append-built, so empty ones
	// are nil.
	rs.entries = report.Entries
	rs.misses = report.Misses
	rs.skipped = report.Skipped
	if len(report.Entries) == 0 {
		report.Entries = nil
	}
	if len(report.Misses) == 0 {
		report.Misses = nil
	}
	if len(report.Skipped) == 0 {
		report.Skipped = nil
	}
	report.Outputs = machine.Outputs()
	rs.snapMap, rs.snapVals = machine.ChannelSnapshotInto(rs.snapMap, rs.snapVals)
	report.Channels = rs.snapMap
	return report, nil
}
