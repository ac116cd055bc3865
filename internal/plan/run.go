package plan

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Run executes the static-order policy as an exact discrete-event
// computation against the compiled plan and returns the full report. It
// produces byte-identical results to the legacy string-keyed engine
// (rt.RunReference), which the differential suite asserts.
//
// The report and everything it references come from the state's pools: they
// are valid until the next Run/RunConcurrent call on the same RunState.
// After the first call warms the pools, steady-state replay of the same
// configuration shape runs without allocating.
func (rs *RunState) Run(cfg Config) (*Report, error) {
	p := rs.p
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("rt: %d frames", cfg.Frames)
	}
	if rs.Released() {
		return nil, fmt.Errorf("rt: Run on a RunState parked in its owner's pool; Acquire it first")
	}
	exec := cfg.Exec
	if exec == nil {
		exec = platform.WCETExec()
	}
	flat, err := p.inv.planInto(&rs.scratch, cfg.Frames, cfg.SporadicEvents)
	if err != nil {
		return nil, err
	}
	machine, err := rs.acquireMachine(core.MachineOptions{
		Inputs:      cfg.Inputs,
		RecordTrace: cfg.RecordTrace,
	})
	if err != nil {
		return nil, err
	}

	n := p.n
	tg := p.tg
	report := &rs.report
	*report = Report{Schedule: p.S, Frames: cfg.Frames}
	if cap(rs.entries) < cfg.Frames*n {
		rs.entries = make([]sched.GanttEntry, 0, cfg.Frames*n)
	}
	report.Entries = rs.entries[:0]
	report.Misses = rs.misses[:0]
	report.Skipped = rs.skipped[:0]
	if len(rs.finish) != n {
		rs.finish = make([]Time, n)
	} else {
		clear(rs.finish)
	}
	finish := rs.finish
	if len(rs.lastFinishOnProc) != p.S.M {
		rs.lastFinishOnProc = make([]Time, p.S.M)
	} else {
		clear(rs.lastFinishOnProc)
	}
	lastFinishOnProc := rs.lastFinishOnProc // carry-over across frames
	// In pipelined mode, cross-frame precedence: a job must wait for the
	// previous frame's jobs of every related process. prevProcFinish
	// holds each process's latest finish in the previous frame, by pid.
	var prevProcFinish []Time
	if cfg.Pipelined {
		if np := p.cn.NumProcesses(); len(rs.prevProcFinish) != np {
			rs.prevProcFinish = make([]Time, np)
		} else {
			clear(rs.prevProcFinish)
		}
		prevProcFinish = rs.prevProcFinish
	}

	// The data semantics run in the zero-delay total order
	// (frame, <_J index): precedence and mutual-exclusion synchronization
	// guarantee this matches the real execution order of every pair of
	// jobs that share state. Since the timing sweep never touches the
	// machine, the per-frame data pass below performs the same machine
	// action sequence as a run-global pass would.
	var lastWait Time
	haveWait := false

	for f := 0; f < cfg.Frames; f++ {
		base := p.h.MulInt(int64(f))
		avail := base.Add(cfg.Overhead.FrameOverhead(f, n))
		invs := flat[f*n : (f+1)*n]
		for _, i := range p.order {
			j := tg.Jobs[i]
			inv := &invs[i]
			start := avail
			if start.Less(inv.Ready) {
				start = inv.Ready
			}
			if prev := p.procChainPrev[i]; prev >= 0 {
				if start.Less(finish[prev]) {
					start = finish[prev]
				}
			} else if carry := lastFinishOnProc[p.jobProc[i]]; start.Less(carry) {
				start = carry
			}
			for _, pre := range tg.Pred[i] {
				if start.Less(finish[pre]) {
					start = finish[pre]
				}
			}
			if cfg.Pipelined && f > 0 {
				for _, q := range p.relPids[p.jobPid[i]] {
					if fin := prevProcFinish[q]; start.Less(fin) {
						start = fin
					}
				}
			}
			if inv.Skip {
				finish[i] = start
				report.Skipped = append(report.Skipped, Skip{Job: j, Frame: f})
				continue
			}
			c := exec(j, f)
			if c.Sign() < 0 {
				return nil, fmt.Errorf("rt: negative execution time %v for %s", c, j.Name())
			}
			finish[i] = start.Add(c)
			report.Entries = append(report.Entries, sched.GanttEntry{
				Proc:  p.jobProc[i],
				Label: p.jobName[i],
				Start: start,
				End:   finish[i],
			})
			deadline := base.Add(j.Deadline)
			if deadline.Less(finish[i]) {
				report.Misses = append(report.Misses, Miss{
					Job: j, Frame: f, Finish: finish[i], Deadline: deadline,
				})
				if late := finish[i].Sub(deadline); report.MaxLateness.Less(late) {
					report.MaxLateness = late
				}
			}
			if report.Makespan.Less(finish[i]) {
				report.Makespan = finish[i]
			}
		}
		for proc := 0; proc < p.S.M; proc++ {
			// The frame's last finish on each processor carries over.
			last := lastFinishOnProc[proc]
			for _, i := range p.procOrder[proc] {
				if last.Less(finish[i]) {
					last = finish[i]
				}
			}
			lastFinishOnProc[proc] = last
		}
		if cfg.Pipelined {
			for q := range prevProcFinish {
				prevProcFinish[q] = Time{}
			}
			for i := 0; i < n; i++ {
				pid := p.jobPid[i]
				if prevProcFinish[pid].Less(finish[i]) {
					prevProcFinish[pid] = finish[i]
				}
			}
		}
		// Data pass for this frame, in <_J index order.
		for i := 0; i < n; i++ {
			inv := &invs[i]
			if inv.Skip {
				continue
			}
			if !haveWait || !inv.Ready.Equal(lastWait) {
				machine.Wait(inv.Ready)
				lastWait = inv.Ready
				haveWait = true
			}
			if err := machine.ExecJobID(p.jobPid[i], inv.Ready); err != nil {
				return nil, err
			}
		}
	}

	// Keep the (possibly grown) report arenas for the next run, and match
	// the fresh-state surface exactly: empty miss/skip lists are nil.
	rs.entries = report.Entries
	rs.misses = report.Misses
	rs.skipped = report.Skipped
	if len(report.Misses) == 0 {
		report.Misses = nil
	}
	if len(report.Skipped) == 0 {
		report.Skipped = nil
	}
	report.Outputs = machine.Outputs()
	rs.snapMap, rs.snapVals = machine.ChannelSnapshotInto(rs.snapMap, rs.snapVals)
	report.Channels = rs.snapMap
	report.Trace = machine.Trace()
	return report, nil
}
