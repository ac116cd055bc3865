package plan

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sched"
)

// RunState is the per-run mutable execution context of a compiled plan.
// A Plan is immutable after Compile and safe to share between goroutines;
// everything a run mutates lives here: the pooled data machine and the
// arenas the planner and report writer fill. The arenas (FIFO rings, output
// slices, plan and report slices) grow on demand and survive across runs.
// A RunState is NOT safe for concurrent use: give each goroutine its own.
//
// Reusing one RunState across runs is the steady-state replay path: after
// the first run warms the arenas, subsequent runs of the same shape execute
// without allocating.
//
// Invariant — report lifetime: the *Report (and the plan slices from
// planInto) returned by a run on this state aliases the state's arenas and
// is valid only until the next Run/RunConcurrent call on the same state;
// callers that need to keep a report across runs must deep-copy it first.
// Pool owners (internal/serve's per-entry free lists) must therefore
// serialize or copy a request's report before the state is released back
// to the free list.
type RunState struct {
	p *Plan

	// released tracks pool membership for owners that recycle states
	// through a free pool (Acquire/Release): 1 while the state is parked
	// in the pool, 0 while checked out. Accessed atomically so a buggy
	// double-release from two goroutines still hands the state to the
	// pool exactly once.
	released uint32

	// machine is the pooled data machine: built on the first run,
	// Reset (not reconstructed) on every following one.
	machine *core.Machine
	// scratch holds the invocation planner's arenas (flat plan, event
	// spans, sort buffer).
	scratch planScratch

	// Report arenas: the report itself plus every slice it carries, grown
	// once and refilled per run.
	report  Report
	entries []sched.GanttEntry
	misses  []Miss
	skipped []Skip

	// Timing scratch of Run: per-job finish times, per-processor
	// carry-over, per-process previous-frame finish (pipelined mode).
	finish           []Time
	lastFinishOnProc []Time
	prevProcFinish   []Time

	// Channel snapshot pool: the map and the one backing array its value
	// slices are carved from.
	snapMap  map[string][]core.Value
	snapVals []core.Value
}

// NewRunState returns a fresh execution context for the plan. Repeated-
// execution callers (cmd/fppnsim -frames N, benchmark loops, one daemon
// request handler) should create one RunState and reuse it across runs;
// one-shot callers can use the Plan.Run / Plan.RunConcurrent conveniences,
// which allocate a RunState per call.
func (p *Plan) NewRunState() *RunState {
	return &RunState{p: p}
}

// Plan returns the immutable compiled plan this state executes.
func (rs *RunState) Plan() *Plan { return rs.p }

// Reset drops every pooled buffer, returning the state to its NewRunState
// condition: the next run starts cold and reallocates its arenas. Use it to
// release the memory of an oversized past run; steady-state callers never
// need it (Run re-initializes the pools itself). Reset preserves the
// Acquire/Release pool-membership flag, so resetting a state cannot smuggle
// it back into an owner's free pool a second time.
func (rs *RunState) Reset() {
	released := atomic.LoadUint32(&rs.released)
	*rs = RunState{p: rs.p}
	atomic.StoreUint32(&rs.released, released)
}

// Acquire marks the state checked out of an owner-managed free pool. Pool
// owners call it on every state handed to a request — fresh or recycled —
// so a later Release is accepted exactly once.
func (rs *RunState) Acquire() {
	atomic.StoreUint32(&rs.released, 0)
}

// Release marks the state as returned to an owner-managed free pool and
// reports whether this call performed the hand-back: the first Release
// after an Acquire returns true, every further one returns false. Owners
// must park a state at most once per Acquire — only when Release returns
// true, or, when the free list has its own lock, only if Released was
// false under that lock — so an accidental double-release is idempotent
// instead of handing one state to two concurrent requests.
func (rs *RunState) Release() bool {
	return atomic.CompareAndSwapUint32(&rs.released, 0, 1)
}

// Released reports whether the state is currently parked in an
// owner-managed free pool.
func (rs *RunState) Released() bool {
	return atomic.LoadUint32(&rs.released) == 1
}

// acquireMachine returns the pooled machine reset for a new run, building
// it on first use.
func (rs *RunState) acquireMachine(opts core.MachineOptions) (*core.Machine, error) {
	if rs.machine == nil {
		m, err := core.NewMachineCompiled(rs.p.cn, opts)
		if err != nil {
			return nil, err
		}
		rs.machine = m
		return m, nil
	}
	if err := rs.machine.Reset(opts); err != nil {
		return nil, err
	}
	return rs.machine, nil
}

// Run executes the plan in a fresh per-call RunState. The plan itself is
// never mutated, so concurrent Run calls on one shared Plan are safe.
func (p *Plan) Run(cfg Config) (*Report, error) {
	return p.NewRunState().Run(cfg)
}

// RunConcurrent executes the plan with one goroutine per processor in a
// fresh per-call RunState. The plan itself is never mutated, so concurrent
// RunConcurrent calls on one shared Plan are safe.
func (p *Plan) RunConcurrent(cfg Config) (*Report, error) {
	return p.NewRunState().RunConcurrent(cfg)
}
