// Package plan lowers a validated network + task graph + static schedule
// into a dense, index-based execution plan for the online static-order
// policy of Section IV of the DATE 2015 FPPN paper.
//
// The frame structure of an FPPN run is fully known at compile time: the
// task graph fixes the job set and precedence of one hyperperiod frame, the
// schedule fixes per-processor static orders, and frame f is frame 0
// shifted by f·H. A Plan therefore interns every name to a contiguous
// integer ID once — process and channel names to the compiled network's
// pids/cids, job membership to index slices — and replays frames against
// preallocated tables, so the per-job cost of Run and RunConcurrent is free
// of map lookups, string keys and per-frame re-planning.
//
// The string-keyed entry points rt.Run, rt.RunConcurrent and
// rt.PlanInvocations remain as thin compile-then-run facades over this
// package; repeated-execution callers (cmd/fppnsim -frames N, benchmark
// loops, the generated timed-automata interpreter) should call Compile once
// and reuse the Plan.
package plan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Time aliases the exact rational time type.
type Time = rational.Rat

// Config parameterizes a runtime execution.
type Config struct {
	// Frames is the number of hyperperiod frames to execute (>= 1).
	Frames int
	// SporadicEvents maps sporadic process names to absolute event time
	// stamps over the whole run ([0, Frames·H)).
	SporadicEvents map[string][]Time
	// Exec yields actual execution times; nil means WCET.
	Exec platform.ExecModel
	// Overhead is the frame-management overhead model.
	Overhead platform.OverheadModel
	// Inputs supplies external input samples (indexed by invocation count
	// across the whole run).
	Inputs map[string][]core.Value
	// RecordTrace enables action-trace recording in the data machine.
	RecordTrace bool
	// Pipelined executes overlapping frames: jobs of frame f+1 may start
	// while frame f's tail is still running on other processors, with
	// cross-frame precedence enforced between related processes. Use
	// with schedules derived with a DeadlineSlack and validated by
	// sched.ValidatePipelined. Only Run supports it; RunConcurrent
	// rejects it.
	Pipelined bool
}

// Miss is a deadline violation observed at run time.
type Miss struct {
	Job      *taskgraph.Job
	Frame    int
	Finish   Time // absolute completion time
	Deadline Time // absolute required time fH + D_i
}

func (m Miss) String() string {
	return fmt.Sprintf("frame %d: %s finished %v > deadline %v (late by %v)",
		m.Frame, m.Job.Name(), m.Finish, m.Deadline, m.Finish.Sub(m.Deadline))
}

// Skip records a server job marked false (no corresponding sporadic event).
type Skip struct {
	Job   *taskgraph.Job
	Frame int
}

// Report is the outcome of a runtime execution.
type Report struct {
	Schedule *sched.Schedule
	Frames   int
	// Entries holds the executed intervals with absolute times.
	Entries []sched.GanttEntry
	// Misses lists deadline violations in completion order.
	Misses []Miss
	// Skipped lists false-marked server jobs.
	Skipped []Skip
	// Outputs are the external output samples produced.
	Outputs map[string][]core.Sample
	// Channels is the final internal channel state.
	Channels map[string][]core.Value
	// Trace is the recorded action trace (if enabled).
	Trace core.Trace
	// Makespan is the absolute completion time of the last job.
	Makespan Time
	// MaxLateness is the largest positive (finish − deadline), or zero.
	MaxLateness Time
}

// Gantt renders the executed intervals over the full run horizon.
func (r *Report) Gantt(width int) string {
	horizon := r.Schedule.TG.Hyperperiod.MulInt(int64(r.Frames))
	return sched.GanttChart(r.Entries, r.Schedule.M, horizon, width)
}

// Summary formats the headline numbers of the run.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d frames on %d processors: %d intervals, %d deadline misses, %d skipped server jobs, makespan %v s",
		r.Frames, r.Schedule.M, len(r.Entries), len(r.Misses), len(r.Skipped), r.Makespan)
}

// JobPlan carries the resolved synchronize-invocation outcome for one job
// instance in one frame.
type JobPlan struct {
	// Ready is the absolute time the invocation synchronization
	// completes: the event time for invoked sporadic jobs (possibly
	// before A_i), fH + A_i for periodic jobs and for false jobs.
	Ready Time
	// Skip marks a false server job.
	Skip bool
	// EventIndex is, for executed server jobs, the 1-based position of
	// the corresponding sporadic event in the process's time-ordered
	// event sequence (0 for periodic jobs and skips). The generated
	// timed-automata system guards server-job execution on the event
	// counter reaching this value.
	EventIndex int
}

// sporadicTable is the compile-time boundary table of one sporadic process:
// everything the Fig. 2 window rules need, reduced to integer arithmetic on
// boundary indices. Boundary q (= the window ending at absolute time q·T')
// lands in frame q / nPerFrame, at the server subset q%nPerFrame + 1 of
// that frame.
type sporadicTable struct {
	name         string
	proc         *core.Process
	tp           Time // server period T'
	includeRight bool // Fig. 2: (b−T', b] when p→u(p), [b−T', b) otherwise
	nPerFrame    int64
	burst        int64
	// jobAt[(subset-1)*burst + slot-1] = frame-0 job index of the server
	// job standing in for the slot-th event of the subset.
	jobAt []int
}

// invTables is the frame-0 invocation table shared by every run of a task
// graph: per-job arrivals and server coordinates plus per-sporadic-process
// boundary tables. Frame f's invocations are frame 0's shifted by f·H, so
// runs of any frame count replay this table instead of rebuilding
// string-keyed window maps per frame.
type invTables struct {
	tg        *taskgraph.TaskGraph
	h         Time
	n         int
	arrival   []Time // frame-relative A_i by job index
	serverIdx []int  // index into sporadics, or -1 for ordinary jobs
	slot      []int  // SlotInSubset (1-based) for server jobs
	subset    []int  // Subset (1-based) for server jobs
	sporadics []sporadicTable
	byName    map[string]int // sporadic process name -> sporadics index
}

func buildInvTables(tg *taskgraph.TaskGraph) (*invTables, error) {
	n := len(tg.Jobs)
	it := &invTables{
		tg:        tg,
		h:         tg.Hyperperiod,
		n:         n,
		arrival:   make([]Time, n),
		serverIdx: make([]int, n),
		slot:      make([]int, n),
		subset:    make([]int, n),
		byName:    make(map[string]int, len(tg.ServerPeriod)),
	}
	for name, tp := range tg.ServerPeriod {
		p := tg.Net.Process(name)
		if p == nil {
			return nil, fmt.Errorf("rt: task graph has a server period for unknown process %q", name)
		}
		npf := it.h.Div(tp)
		if !npf.IsInt() {
			return nil, fmt.Errorf("rt: server period %v of %q does not divide the hyperperiod %v", tp, name, it.h)
		}
		burst := int64(p.Burst())
		it.byName[name] = len(it.sporadics)
		it.sporadics = append(it.sporadics, sporadicTable{
			name:         name,
			proc:         p,
			tp:           tp,
			includeRight: tg.IncludeRight[name],
			nPerFrame:    npf.Num(),
			burst:        burst,
			jobAt:        make([]int, npf.Num()*burst),
		})
	}
	// Deterministic sporadic order (ServerPeriod is a map).
	sort.Slice(it.sporadics, func(a, b int) bool { return it.sporadics[a].name < it.sporadics[b].name })
	for i, st := range it.sporadics {
		it.byName[st.name] = i
	}
	for i, j := range tg.Jobs {
		it.arrival[i] = j.Arrival
		it.serverIdx[i] = -1
		if j.Server {
			si, ok := it.byName[j.Proc]
			if !ok {
				return nil, fmt.Errorf("rt: process %q has no server period in the task graph", j.Proc)
			}
			st := &it.sporadics[si]
			it.serverIdx[i] = si
			it.slot[i] = j.SlotInSubset
			it.subset[i] = j.Subset
			st.jobAt[int64(j.Subset-1)*st.burst+int64(j.SlotInSubset-1)] = i
		}
	}
	return it, nil
}

// plannedEvent is one sporadic event resolved to its 1-based position in
// the process's time-ordered event sequence.
type plannedEvent struct {
	time  Time
	index int
}

// planScratch holds the arenas of the invocation planner. A RunState keeps
// one across runs, so steady-state replay fills the same flat plan and event
// spans instead of reallocating them; PlanInvocations passes a fresh one.
type planScratch struct {
	flat   []JobPlan
	sorted []Time // event sort buffer, one process at a time
	// Per sporadic process (indexed like invTables.sporadics): the run's
	// planned events in time order alongside the boundary index q each was
	// assigned to. q is nondecreasing in event time, so evq is sorted and
	// the events of boundary q form the contiguous span found by a binary
	// search — the flat-slice replacement of the old map[q][]plannedEvent.
	evs [][]plannedEvent
	evq [][]int64
}

// searchInt64 returns the smallest index i with a[i] >= q, or len(a).
func searchInt64(a []int64, q int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// planInto distributes the run's sporadic events to server subsets per the
// boundary rules of Fig. 2 and materializes the invocation outcome of every
// (frame, job) instance as one flat slice indexed [frame*n + job index].
// All storage comes from sc; the returned slice aliases sc.flat and is
// valid until the next planInto call with the same scratch.
func (it *invTables) planInto(sc *planScratch, frames int, events map[string][]Time) ([]JobPlan, error) {
	horizon := it.h.MulInt(int64(frames))

	if len(sc.evs) != len(it.sporadics) {
		sc.evs = make([][]plannedEvent, len(it.sporadics))
		sc.evq = make([][]int64, len(it.sporadics))
	}
	for si := range sc.evs {
		sc.evs[si] = sc.evs[si][:0]
		sc.evq[si] = sc.evq[si][:0]
	}
	// An event whose window ends beyond the run is lost, which the caller
	// almost certainly did not intend. The legacy planner reports it only
	// after all events are distributed (beyond-horizon errors take
	// precedence), so record the first violation and fail at the end.
	lateErr := error(nil)
	for proc, times := range events {
		p := it.tg.Net.Process(proc)
		if p == nil {
			return nil, fmt.Errorf("rt: sporadic events for unknown process %q", proc)
		}
		if !p.IsSporadic() {
			return nil, fmt.Errorf("rt: sporadic events for non-sporadic process %q", proc)
		}
		si, ok := it.byName[proc]
		if !ok {
			return nil, fmt.Errorf("rt: process %q has no server period in the task graph", proc)
		}
		st := &it.sporadics[si]
		sorted := append(sc.sorted[:0], times...)
		sc.sorted = sorted
		slices.SortFunc(sorted, Time.Cmp)
		if err := p.Gen.CheckSporadic(sorted); err != nil {
			return nil, fmt.Errorf("rt: process %q: %w", proc, err)
		}
		for idx, tau := range sorted {
			if !tau.Less(horizon) {
				return nil, fmt.Errorf("rt: event for %q at %v is beyond the run horizon %v", proc, tau, horizon)
			}
			var q int64
			if st.includeRight {
				// Window (b − T', b]: b = ⌈τ/T'⌉·T'.
				q = tau.Div(st.tp).Ceil()
			} else {
				// Window [b − T', b): b = (⌊τ/T'⌋ + 1)·T'.
				q = tau.Div(st.tp).Floor() + 1
			}
			if q >= int64(frames)*st.nPerFrame {
				if lateErr == nil {
					lateErr = fmt.Errorf("rt: events for %q in the window ending at %v are handled only after the run's last frame; extend Frames",
						proc, st.tp.MulInt(q))
				}
				continue
			}
			sc.evs[si] = append(sc.evs[si], plannedEvent{time: tau, index: idx + 1})
			sc.evq[si] = append(sc.evq[si], q)
		}
	}
	if lateErr != nil {
		return nil, lateErr
	}

	n := it.n
	if cap(sc.flat) < frames*n {
		sc.flat = make([]JobPlan, frames*n)
	}
	flat := sc.flat[:frames*n]
	sc.flat = flat
	for f := 0; f < frames; f++ {
		base := it.h.MulInt(int64(f))
		invs := flat[f*n : (f+1)*n]
		for i := 0; i < n; i++ {
			abs := base.Add(it.arrival[i])
			si := it.serverIdx[i]
			if si < 0 {
				invs[i] = JobPlan{Ready: abs}
				continue
			}
			st := &it.sporadics[si]
			q := int64(f)*st.nPerFrame + int64(it.subset[i]-1)
			// Boundary q's events are the contiguous evq span equal to q.
			evq := sc.evq[si]
			cand := searchInt64(evq, q) + it.slot[i] - 1
			if cand < len(evq) && evq[cand] == q {
				ev := sc.evs[si][cand]
				invs[i] = JobPlan{Ready: ev.time, EventIndex: ev.index}
			} else {
				invs[i] = JobPlan{Ready: abs, Skip: true}
			}
		}
	}
	return flat, nil
}

// PlanInvocations maps every (frame, job) instance to its invocation
// outcome, distributing sporadic events to server subsets per the boundary
// rules of Fig. 2. The result is indexed [frame][job index]; the inner
// slices share one backing array.
func PlanInvocations(tg *taskgraph.TaskGraph, frames int, events map[string][]Time) ([][]JobPlan, error) {
	it, err := buildInvTables(tg)
	if err != nil {
		return nil, err
	}
	flat, err := it.planInto(&planScratch{}, frames, events)
	if err != nil {
		return nil, err
	}
	n := len(tg.Jobs)
	out := make([][]JobPlan, frames)
	for f := 0; f < frames; f++ {
		out[f] = flat[f*n : (f+1)*n]
	}
	return out, nil
}

// Plan is a compiled execution plan: a static schedule lowered onto the
// interned network, ready for repeated Run/RunConcurrent calls. A Plan is
// immutable after Compile and safe for concurrent use.
type Plan struct {
	// S is the source schedule.
	S *sched.Schedule

	tg  *taskgraph.TaskGraph
	cn  *core.CompiledNet
	inv *invTables
	n   int  // jobs per frame
	h   Time // hyperperiod

	// order is the frame's combined topological order: task-graph
	// precedence plus per-processor static chains.
	order []int
	// procOrder[p] lists the frame's job indices on processor p in static
	// start order.
	procOrder [][]int
	// procChainPrev[i] is the previous job index on job i's processor, or
	// -1 for the first job of a chain.
	procChainPrev []int
	// jobProc[i] is the processor µ_i.
	jobProc []int
	// jobPid[i] is the compiled pid of job i's process.
	jobPid []int
	// jobName[i] is Jobs[i].Name() precomputed: Gantt entries label every
	// executed interval, and Job.Name formats a fresh string per call.
	jobName []string
	// relPids[pid] lists the pids FP'-related to pid (including itself),
	// ascending, for the pipelined cross-frame precedence rule.
	relPids [][]int
}

// Compile lowers a static schedule into an execution plan. It validates
// the network once (interning it), checks the schedule against the
// precedence constraints and precomputes the frame-0 invocation tables.
func Compile(s *sched.Schedule) (*Plan, error) {
	return CompileOpts(s, CompileOptions{})
}

// CompileOptions tunes plan compilation.
type CompileOptions struct {
	// AllowUncoveredChannels compiles a plan for a network with
	// FP-coverage gaps (FPPN003), matching
	// taskgraph.Options.AllowUncoveredChannels on the derive side. The
	// resulting plan deliberately under-synchronizes the uncovered
	// channel accesses; it exists to be examined (hb.Verify), not run.
	AllowUncoveredChannels bool
}

// CompileOpts is Compile with explicit options.
func CompileOpts(s *sched.Schedule, opts CompileOptions) (*Plan, error) {
	tg := s.TG
	cn, err := core.CompileNetworkOpts(tg.Net, core.CompileOptions{
		AllowUncoveredChannels: opts.AllowUncoveredChannels,
	})
	if err != nil {
		return nil, err
	}
	it, err := buildInvTables(tg)
	if err != nil {
		return nil, err
	}
	n := len(tg.Jobs)
	p := &Plan{
		S:             s,
		tg:            tg,
		cn:            cn,
		inv:           it,
		n:             n,
		h:             tg.Hyperperiod,
		procOrder:     s.ProcessorOrder(),
		procChainPrev: make([]int, n),
		jobProc:       make([]int, n),
		jobPid:        make([]int, n),
		jobName:       make([]string, n),
	}
	for i := range p.procChainPrev {
		p.procChainPrev[i] = -1
	}
	for _, chain := range p.procOrder {
		for i := 1; i < len(chain); i++ {
			p.procChainPrev[chain[i]] = chain[i-1]
		}
	}
	for i, j := range tg.Jobs {
		p.jobProc[i] = s.Assign[i].Proc
		p.jobName[i] = j.Name()
		pid := cn.ProcID(j.Proc)
		if pid < 0 {
			return nil, fmt.Errorf("rt: job %s refers to unknown process %q", j.Name(), j.Proc)
		}
		p.jobPid[i] = pid
	}
	if p.order, err = combinedOrder(s, p.procOrder); err != nil {
		return nil, err
	}
	if p.relPids, err = relatedPids(tg, cn.NumProcesses()); err != nil {
		return nil, err
	}
	return p, nil
}

// relatedPids lowers the task graph's interned FP'-related lists (in
// Net.Processes() order, which is the compiled pid order) to the plan's
// self-inclusive pid lists, in O(P + Σ|related|) and one backing array.
func relatedPids(tg *taskgraph.TaskGraph, np int) ([][]int, error) {
	rel := tg.RelatedIndices()
	if len(rel) != np {
		return nil, fmt.Errorf("rt: task graph has related lists for %d processes, the network has %d", len(rel), np)
	}
	total := np
	for _, qs := range rel {
		total += len(qs)
	}
	backing := make([]int, 0, total)
	out := make([][]int, np)
	for a, qs := range rel {
		lo := len(backing)
		self := false
		for _, q := range qs {
			if !self && a < int(q) {
				backing, self = append(backing, a), true
			}
			backing = append(backing, int(q))
		}
		if !self {
			backing = append(backing, a)
		}
		out[a] = backing[lo:len(backing):len(backing)]
	}
	return out, nil
}

// TaskGraph returns the task graph the plan executes.
func (p *Plan) TaskGraph() *taskgraph.TaskGraph { return p.tg }

// Compiled returns the interned network the plan executes against.
func (p *Plan) Compiled() *core.CompiledNet { return p.cn }

// combinedOrder returns a topological order of the frame's jobs with
// respect to precedence edges plus the per-processor static chains of
// procOrder (s.ProcessorOrder()). It fails if the static schedule
// contradicts the precedence constraints.
func combinedOrder(s *sched.Schedule, procOrder [][]int) ([]int, error) {
	tg := s.TG
	n := len(tg.Jobs)
	adj := make([][]int, n)
	indeg := make([]int, n)
	add := func(a, b int) {
		adj[a] = append(adj[a], b)
		indeg[b]++
	}
	for _, e := range tg.Edges() {
		add(e[0], e[1])
	}
	for _, chain := range procOrder {
		for i := 1; i < len(chain); i++ {
			add(chain[i-1], chain[i])
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		var next []int
		for _, u := range adj[v] {
			indeg[u]--
			if indeg[u] == 0 {
				next = append(next, u)
			}
		}
		sort.Ints(next)
		ready = append(ready, next...)
	}
	if len(order) != n {
		return nil, fmt.Errorf("rt: static schedule is inconsistent with the precedence constraints (cycle between processor order and task graph)")
	}
	return order, nil
}
