package core

import (
	"fmt"
)

// Cloner is an optional interface for Behavior implementations whose
// internal state must be duplicated when several Machines execute the same
// Network (e.g. when comparing a zero-delay reference run against a
// real-time run). Behaviors that do not implement Cloner are shared, and
// Init is relied upon to reset them.
type Cloner interface {
	Clone() Behavior
}

// MachineOptions configures a Machine.
type MachineOptions struct {
	// Inputs maps external input channel names to their sample
	// sequences; the k-th job of the attached process reads sample [k]
	// (index k-1). Missing samples read as unavailable.
	Inputs map[string][]Value
	// RecordTrace enables action-trace recording.
	RecordTrace bool
}

// Machine executes jobs of a validated Network against shared channel
// state. It enforces the FPPN access discipline (a process may only touch
// its own channels) and assigns invocation counts k in execution order.
// Machine contains the data semantics only; *when* jobs execute is decided
// by the caller (the zero-delay executor, the real-time runtime, or the
// generated timed-automata interpreter).
//
// Internally the machine runs on the interned tables of a CompiledNet:
// channel state and invocation counts are slices indexed by the compiled
// channel/process IDs, and a single JobContext is reused across jobs, so
// the per-job cost is free of map lookups and allocations.
type Machine struct {
	cn        *CompiledNet
	chans     []channelState // by cid
	behaviors []Behavior     // by pid
	counts    []int64        // by pid
	inputs    map[string][]Value
	outputs   map[string][]Sample
	// outPool recycles the sample storage of output channels across
	// Reset: outputs must only contain channels actually written (their
	// key set is observable), so Reset moves each slice here and the
	// first write of the next run takes it back — steady-state replay
	// re-creates the same key set without allocating.
	outPool map[string][]Sample
	trace   Trace
	record  bool
	floats  floatArena // recycled cells behind JobContext.BoxFloat
	ctx     JobContext // reused across ExecJob calls
}

// NewMachine creates a Machine for a validated network. Behaviors
// implementing Cloner are cloned; all behaviors are Init-ed. For repeated
// machine construction over the same network, compile once with
// CompileNetwork and use NewMachineCompiled.
func NewMachine(net *Network, opts MachineOptions) (*Machine, error) {
	cn, err := CompileNetwork(net)
	if err != nil {
		return nil, err
	}
	return NewMachineCompiled(cn, opts)
}

// NewMachineCompiled creates a Machine over an already-compiled network,
// skipping validation and interning.
func NewMachineCompiled(cn *CompiledNet, opts MachineOptions) (*Machine, error) {
	for ch := range opts.Inputs {
		if _, ok := cn.net.extIn[ch]; !ok {
			return nil, fmt.Errorf("core: inputs provided for unknown external input channel %q", ch)
		}
	}
	m := &Machine{
		cn:        cn,
		chans:     make([]channelState, len(cn.chans)),
		behaviors: make([]Behavior, len(cn.procs)),
		counts:    make([]int64, len(cn.procs)),
		inputs:    opts.Inputs,
		outputs:   make(map[string][]Sample),
		record:    opts.RecordTrace,
	}
	m.ctx.m = m
	// Channel states live in two contiguous pools (one per kind): machine
	// construction costs a fixed number of allocations regardless of
	// channel count. FIFO rings grow on demand and Reset keeps them.
	fifoCount := 0
	for _, c := range cn.chans {
		if c.Kind == FIFO {
			fifoCount++
		}
	}
	fifos := make([]fifoState, fifoCount)
	boards := make([]blackboardState, len(cn.chans)-fifoCount)
	fi, bi := 0, 0
	for cid, c := range cn.chans {
		switch c.Kind {
		case FIFO:
			m.chans[cid] = &fifos[fi]
			fi++
		case Blackboard:
			b := &boards[bi]
			bi++
			b.initial, b.hasInitial = c.Initial, c.HasInitial
			b.reset()
			m.chans[cid] = b
		default:
			m.chans[cid] = newChannelState(c) // panics on unknown kinds
		}
	}
	for pid, p := range cn.procs {
		b := p.behavior()
		if c, ok := b.(Cloner); ok {
			b = c.Clone()
		}
		b.Init()
		m.behaviors[pid] = b
	}
	return m, nil
}

// Reset returns the machine to its initial state so it can execute another
// run, retaining every internal buffer: channel pools keep their storage,
// output sample slices move to the recycle pool, and the trace backing is
// truncated. After Reset the machine is observationally identical to a
// freshly constructed one over the same CompiledNet — steady-state replay
// reuses one machine with zero per-run allocations.
//
// Behaviors are re-Init-ed, relying on the same contract as construction:
// Init fully resets behavior state. Inputs and RecordTrace are applied as in
// NewMachineCompiled.
func (m *Machine) Reset(opts MachineOptions) error {
	for ch := range opts.Inputs {
		if _, ok := m.cn.net.extIn[ch]; !ok {
			return fmt.Errorf("core: inputs provided for unknown external input channel %q", ch)
		}
	}
	for _, s := range m.chans {
		s.reset()
	}
	clear(m.counts)
	// Keys of m.outputs are observable (only channels actually written
	// appear), so the map is emptied rather than truncated in place; the
	// sample storage is parked in outPool for the next run's first writes.
	if len(m.outputs) > 0 && m.outPool == nil {
		m.outPool = make(map[string][]Sample, len(m.outputs))
	}
	for ch, s := range m.outputs {
		m.outPool[ch] = s[:0]
	}
	clear(m.outputs)
	m.floats.reset()
	m.inputs = opts.Inputs
	m.record = opts.RecordTrace
	if m.record {
		m.trace = m.trace[:0]
	} else {
		// A fresh non-recording machine reports a nil trace; drop the
		// backing so pooled and fresh machines stay indistinguishable.
		m.trace = nil
	}
	for _, b := range m.behaviors {
		b.Init()
	}
	return nil
}

// Network returns the network this machine executes.
func (m *Machine) Network() *Network { return m.cn.net }

// Compiled returns the compiled network this machine executes.
func (m *Machine) Compiled() *CompiledNet { return m.cn }

// Count returns the number of jobs of the process executed so far.
func (m *Machine) Count(proc string) int64 {
	pid, ok := m.cn.procID[proc]
	if !ok {
		return 0
	}
	return m.counts[pid]
}

// Wait records the paper's w(τ) action. Callers invoke it when simulated
// time advances to a new invocation instant.
func (m *Machine) Wait(t Time) {
	if m.record {
		m.trace = append(m.trace, Action{Kind: ActWait, Time: t})
	}
}

// ExecJob runs the next job (invocation count k = Count+1) of the named
// process at time t. Channel access errors inside the behaviour (touching a
// channel the process does not own) and behaviour panics are returned as
// errors.
func (m *Machine) ExecJob(proc string, t Time) error {
	pid, ok := m.cn.procID[proc]
	if !ok {
		return fmt.Errorf("core: ExecJob of unknown process %q", proc)
	}
	return m.ExecJobID(pid, t)
}

// ExecJobID is ExecJob with the process pre-resolved to its compiled id —
// the allocation-free hot path of the execution engines.
func (m *Machine) ExecJobID(pid int, t Time) (err error) {
	p := m.cn.procs[pid]
	m.counts[pid]++
	k := m.counts[pid]
	ctx := &m.ctx
	ctx.p, ctx.pid, ctx.k, ctx.now, ctx.err = p, pid, k, t, nil
	if m.record {
		m.trace = append(m.trace, Action{Kind: ActJobStart, Time: t, Proc: p.Name, K: k})
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: job %s[%d] at %v panicked: %v", p.Name, k, t, r)
		}
		if m.record {
			m.trace = append(m.trace, Action{Kind: ActJobEnd, Time: t, Proc: p.Name, K: k})
		}
	}()
	if err := m.behaviors[pid].Step(ctx); err != nil {
		return fmt.Errorf("core: job %s[%d] at %v: %w", p.Name, k, t, err)
	}
	if ctx.err != nil {
		return fmt.Errorf("core: job %s[%d] at %v: %w", p.Name, k, t, ctx.err)
	}
	return nil
}

// Outputs returns the samples written to every external output channel so
// far. The returned map is live; callers must not mutate it.
func (m *Machine) Outputs() map[string][]Sample { return m.outputs }

// Trace returns the recorded action trace (empty unless RecordTrace).
func (m *Machine) Trace() Trace { return m.trace }

// ChannelSnapshot returns the observable content of every internal channel,
// keyed by channel name: queued values for FIFOs, the last value for
// initialized blackboards.
func (m *Machine) ChannelSnapshot() map[string][]Value {
	out := make(map[string][]Value, len(m.chans))
	for _, cid := range m.cn.chanSorted {
		out[m.cn.chans[cid].Name] = m.chans[cid].snapshot()
	}
	return out
}

// ChannelSnapshotInto is ChannelSnapshot with caller-owned storage: dst is
// cleared and refilled, and the per-channel value slices are carved out of
// backing (grown only when the total snapshot size exceeds its capacity).
// It returns the map and backing to pass to the next call; the snapshot in
// dst aliases backing and is valid until that next call. Passing nil for
// both is equivalent to ChannelSnapshot.
func (m *Machine) ChannelSnapshotInto(dst map[string][]Value, backing []Value) (map[string][]Value, []Value) {
	if dst == nil {
		dst = make(map[string][]Value, len(m.chans))
	} else {
		clear(dst)
	}
	total := 0
	for _, s := range m.chans {
		total += s.len()
	}
	// Grow before carving: reallocating mid-loop would orphan the slices
	// already handed to dst.
	if cap(backing) < total {
		backing = make([]Value, 0, total)
	} else {
		backing = backing[:0]
	}
	for _, cid := range m.cn.chanSorted {
		name := m.cn.chans[cid].Name
		switch s := m.chans[cid].(type) {
		case *fifoState:
			// Matches fifoState.snapshot: non-nil even when empty.
			start := len(backing)
			for i := 0; i < s.n; i++ {
				backing = append(backing, s.buf[(s.head+i)%len(s.buf)])
			}
			dst[name] = backing[start:len(backing):len(backing)]
		case *blackboardState:
			// Matches blackboardState.snapshot: nil when uninitialized.
			if s.initialized {
				start := len(backing)
				backing = append(backing, s.v)
				dst[name] = backing[start : start+1 : start+1]
			} else {
				dst[name] = nil
			}
		default:
			dst[name] = m.chans[cid].snapshot()
		}
	}
	return dst, backing
}

// ChannelLen returns the number of readable values in the named channel.
func (m *Machine) ChannelLen(name string) int {
	cid, ok := m.cn.chanID[name]
	if !ok {
		return 0
	}
	return m.chans[cid].len()
}

// ChannelHighWater returns, per channel, the maximum number of values
// buffered simultaneously during the execution so far: the capacity a
// bounded-buffer implementation of each channel must provision. Blackboards
// report at most 1.
func (m *Machine) ChannelHighWater() map[string]int {
	out := make(map[string]int, len(m.chans))
	for cid, s := range m.chans {
		out[m.cn.chans[cid].Name] = s.highWater()
	}
	return out
}

// JobContext is the channel-access interface handed to a Behavior during one
// job execution run. All methods follow the paper's access rules: internal
// reads and writes are non-blocking, external I/O is indexed by the job's
// invocation count k.
type JobContext struct {
	m   *Machine
	p   *Process
	pid int
	k   int64
	now Time
	err error
}

// K returns the invocation count of this job (1-based).
func (c *JobContext) K() int64 { return c.k }

// Now returns the invocation time stamp of this job.
func (c *JobContext) Now() Time { return c.now }

// Process returns the name of the executing process.
func (c *JobContext) Process() string { return c.p.Name }

// Inputs returns the internal input channels of the executing process,
// sorted by name. The slice is shared; callers must not mutate it.
func (c *JobContext) Inputs() []string { return c.m.cn.inSorted[c.pid] }

// Outputs returns the internal output channels of the executing process,
// sorted by name. The slice is shared; callers must not mutate it.
func (c *JobContext) Outputs() []string { return c.m.cn.outSorted[c.pid] }

// ExternalInputs returns the external input channels of the executing
// process, sorted by name. The slice is shared; callers must not mutate it.
func (c *JobContext) ExternalInputs() []string { return c.m.cn.extInSorted[c.pid] }

// ExternalOutputs returns the external output channels of the executing
// process, sorted by name. The slice is shared; callers must not mutate it.
func (c *JobContext) ExternalOutputs() []string { return c.m.cn.extOutSorted[c.pid] }

// BoxFloat boxes f as a Value from the machine's recycled float arena, so
// behaviors that write float samples stay allocation-free in steady-state
// replay. The returned Value behaves exactly like an ordinary boxed
// float64; its backing cell is recycled by Machine.Reset, giving it the
// same lifetime as every other pooled run artifact (valid until the next
// run on the same pooled state).
func (c *JobContext) BoxFloat(f float64) Value { return c.m.floats.box(f) }

func (c *JobContext) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// inCid resolves an internal input channel name to its cid, or -1 when the
// process does not own it. Fan-in per process is small, so a linear scan
// over the interned attachment list beats a map lookup.
func (c *JobContext) inCid(channel string) int {
	names := c.m.cn.inName[c.pid]
	for i, name := range names {
		if name == channel {
			return c.m.cn.inID[c.pid][i]
		}
	}
	return -1
}

func (c *JobContext) outCid(channel string) int {
	names := c.m.cn.outName[c.pid]
	for i, name := range names {
		if name == channel {
			return c.m.cn.outID[c.pid][i]
		}
	}
	return -1
}

// Read performs the action x?c on an internal input channel of the process.
// ok == false indicates non-availability of data (empty FIFO or
// uninitialized blackboard).
func (c *JobContext) Read(channel string) (v Value, ok bool) {
	cid := c.inCid(channel)
	if cid < 0 {
		c.fail("process %q read from channel %q it does not own as input", c.p.Name, channel)
		return nil, false
	}
	v, ok = c.m.chans[cid].read()
	if c.m.record {
		c.m.trace = append(c.m.trace, Action{
			Kind: ActRead, Time: c.now, Proc: c.p.Name, K: c.k,
			Channel: channel, Value: v, OK: ok,
		})
	}
	return v, ok
}

// Write performs the action x!c on an internal output channel of the
// process.
func (c *JobContext) Write(channel string, v Value) {
	cid := c.outCid(channel)
	if cid < 0 {
		c.fail("process %q wrote to channel %q it does not own as output", c.p.Name, channel)
		return
	}
	c.m.chans[cid].write(v)
	if c.m.record {
		c.m.trace = append(c.m.trace, Action{
			Kind: ActWrite, Time: c.now, Proc: c.p.Name, K: c.k,
			Channel: channel, Value: v, OK: true,
		})
	}
}

// ReadInput reads sample [k] from an external input channel of the process,
// where k is this job's invocation count.
func (c *JobContext) ReadInput(channel string) (v Value, ok bool) {
	if !c.p.hasExtIn(channel) {
		c.fail("process %q read external input %q it does not own", c.p.Name, channel)
		return nil, false
	}
	samples := c.m.inputs[channel]
	if c.k >= 1 && c.k <= int64(len(samples)) {
		v, ok = samples[c.k-1], true
	}
	if c.m.record {
		c.m.trace = append(c.m.trace, Action{
			Kind: ActReadExt, Time: c.now, Proc: c.p.Name, K: c.k,
			Channel: channel, Value: v, OK: ok,
		})
	}
	return v, ok
}

// WriteOutput writes sample [k] to an external output channel of the
// process, where k is this job's invocation count.
func (c *JobContext) WriteOutput(channel string, v Value) {
	if !c.p.hasExtOut(channel) {
		c.fail("process %q wrote external output %q it does not own", c.p.Name, channel)
		return
	}
	out := c.m.outputs[channel]
	if out == nil {
		// First write: recycle the storage parked by Reset if this channel
		// was written in a previous run.
		if pooled, ok := c.m.outPool[channel]; ok {
			out = pooled[:0]
		}
	}
	c.m.outputs[channel] = append(out, Sample{K: c.k, Time: c.now, Value: v})
	if c.m.record {
		c.m.trace = append(c.m.trace, Action{
			Kind: ActWriteExt, Time: c.now, Proc: c.p.Name, K: c.k,
			Channel: channel, Value: v, OK: true,
		})
	}
}
