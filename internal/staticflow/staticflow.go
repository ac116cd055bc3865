// Package staticflow computes dataflow facts of an FPPN model in closed
// form, without executing any process behaviour. It is the static
// counterpart of internal/analysis (which learns the same facts by
// running the model) and the analysis engine behind the lint rules
// FPPN014–017:
//
//   - Buffers sweeps the zero-delay job order symbolically — counting
//     tokens instead of moving values — and returns, per channel, exact
//     token production/consumption counts, the FIFO high-water bound,
//     per-frame backlogs and an unbalance verdict. The numbers agree
//     byte-for-byte with the executed analysis.BufferBounds, which the
//     differential suite in internal/integration enforces. This is the
//     SDF balance-equation idea (Lee & Messerschmitt 1987) transplanted
//     to FPPN: rates, bursts and the FP order alone determine the
//     occupancy profile, because the access profile of every channel
//     (how many tokens a job moves) is declared on the model, not
//     hidden in code.
//   - Demand applies the processor-demand criterion (Baruah et al.) to
//     one hyperperiod frame of the server-transformed network PN',
//     yielding a lower bound on the processor count that the true
//     sched.MinProcessors can never undercut.
//   - SuggestFP (suggest.go) completes the functional-priority coverage
//     of every channel-sharing pair with a minimal, acyclicity-
//     preserving edge set — the machine-applicable fix for FPPN003.
//
// Token counting relies on each channel's declared access profile: by
// default a writer job produces one token and a reader job consumes at
// most one; core.Channel.DrainReads declares a read-until-empty loop
// and core.Channel.WriteGatedBy a write conditional on a same-job read.
// Blackboards hold at most one value and are bound to 1 once written or
// initialized.
package staticflow

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Time aliases the exact rational time type.
type Time = core.Time

// ChannelBounds is the static occupancy profile of one internal channel.
type ChannelBounds struct {
	// Name, Kind, Writer and Reader identify the channel.
	Name   string
	Kind   core.ChannelKind
	Writer string
	Reader string
	// Produced and Consumed count the tokens written and consumed per
	// hyperperiod frame (index 0 is the first frame). For blackboards
	// Produced counts writes and Consumed is always zero (reads do not
	// remove the value).
	Produced []int
	Consumed []int
	// HighWater is the maximum simultaneous occupancy over the whole
	// sweep: the buffer capacity an implementation must provision.
	// Blackboards are bound to 1.
	HighWater int
	// EndOfFrameBacklog is the occupancy at each hyperperiod boundary
	// (h, 2h, ..., frames·h).
	EndOfFrameBacklog []int
	// Unbalanced reports a backlog growing strictly from frame to
	// frame: the producer outpaces the consumer and no finite buffer
	// suffices in the long run.
	Unbalanced bool
}

// BufferProfile is the result of one static buffer sweep.
type BufferProfile struct {
	// Hyperperiod is the frame length h of the raw process periods.
	Hyperperiod Time
	// Frames is the number of hyperperiod frames swept.
	Frames int

	channels map[string]*ChannelBounds
	order    []string // channel names, sorted
}

// Channel returns the bounds of one channel, or nil.
func (p *BufferProfile) Channel(name string) *ChannelBounds { return p.channels[name] }

// Channels returns the per-channel bounds sorted by channel name.
func (p *BufferProfile) Channels() []*ChannelBounds {
	out := make([]*ChannelBounds, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, p.channels[name])
	}
	return out
}

// Bound returns the static high-water bound for one channel. ok is
// false when the channel does not exist in the profiled network.
func (p *BufferProfile) Bound(channel string) (bound int, ok bool) {
	c, ok := p.channels[channel]
	if !ok {
		return 0, false
	}
	return c.HighWater, true
}

// HighWater returns the per-channel high-water bounds in the same shape
// as the executed analysis.BufferReport.HighWater.
func (p *BufferProfile) HighWater() map[string]int {
	out := make(map[string]int, len(p.channels))
	for name, c := range p.channels {
		out[name] = c.HighWater
	}
	return out
}

// EndOfFrameBacklog returns the per-channel boundary backlogs in the
// same shape as the executed analysis.BufferReport.EndOfFrameBacklog.
func (p *BufferProfile) EndOfFrameBacklog() map[string][]int {
	out := make(map[string][]int, len(p.channels))
	for name, c := range p.channels {
		out[name] = c.EndOfFrameBacklog
	}
	return out
}

// Unbalanced returns the names of unbalanced channels, sorted.
func (p *BufferProfile) Unbalanced() []string {
	var out []string
	for _, name := range p.order {
		if p.channels[name].Unbalanced {
			out = append(out, name)
		}
	}
	return out
}

// chanEffect precomputes what one job of a process does to one channel.
type chanEffect struct {
	ch      *core.Channel
	gateIdx int // index into the process's read list, or -1 (unconditional)
}

// procEffects is the per-process token footprint of one job.
type procEffects struct {
	reads  []*core.Channel
	writes []chanEffect
}

// Buffers performs the static buffer sweep over the given number of
// hyperperiod frames (at least 2, to judge balance) with the given
// sporadic event times. It requires a well-formed network: builder
// errors, FP cycles or uncovered channels make the zero-delay order
// undefined and are returned as an error.
func Buffers(net *core.Network, frames int, events map[string][]Time) (*BufferProfile, error) {
	if frames < 2 {
		return nil, fmt.Errorf("staticflow: need at least 2 frames to judge balance, got %d", frames)
	}
	if ps := net.Problems(); len(ps) > 0 {
		return nil, fmt.Errorf("staticflow: network %q is not well-formed: %v", net.Name, ps[0].Message)
	}
	h, err := core.Hyperperiod(net, nil)
	if err != nil {
		return nil, err
	}
	horizon := h.MulInt(int64(frames))
	invs, err := core.GenerateInvocations(net, horizon, events)
	if err != nil {
		return nil, err
	}
	rank, err := net.LinearExtension(-1)
	if err != nil {
		return nil, err
	}
	jobs := core.JobSequence(net, invs, rank)

	profile := &BufferProfile{
		Hyperperiod: h,
		Frames:      frames,
		channels:    make(map[string]*ChannelBounds),
	}
	for _, c := range net.Channels() {
		cb := &ChannelBounds{
			Name: c.Name, Kind: c.Kind, Writer: c.Writer, Reader: c.Reader,
			Produced: make([]int, frames), Consumed: make([]int, frames),
		}
		profile.channels[c.Name] = cb
		profile.order = append(profile.order, c.Name)
	}
	sort.Strings(profile.order)

	// Interpreter state: FIFO occupancy and blackboard initialization.
	occ := make(map[string]int, len(profile.channels))
	initialized := make(map[string]bool)
	for _, c := range net.Channels() {
		if c.Kind == core.Blackboard && c.HasInitial {
			initialized[c.Name] = true
		}
	}

	// Per-process token effects, resolved once.
	effects := make(map[string]*procEffects, len(net.Processes()))
	maxReads := 0
	for _, p := range net.Processes() {
		e := &procEffects{}
		if p.Behavior == nil || p.Behavior == core.NopBehavior {
			effects[p.Name] = e // declared no-op: touches no channels
			continue
		}
		for _, name := range p.Inputs() {
			e.reads = append(e.reads, net.Channel(name))
		}
		for _, name := range p.Outputs() {
			c := net.Channel(name)
			w := chanEffect{ch: c, gateIdx: -1}
			if c.WriteGatedBy != "" {
				for i, rc := range e.reads {
					if rc.Name == c.WriteGatedBy {
						w.gateIdx = i
						break
					}
				}
			}
			e.writes = append(e.writes, w)
		}
		if len(e.reads) > maxReads {
			maxReads = len(e.reads)
		}
		effects[p.Name] = e
	}

	frame := 0
	readOK := make([]bool, maxReads)
	nextBoundary := h
	recordBoundary := func() {
		for _, name := range profile.order {
			cb := profile.channels[name]
			backlog := occ[name]
			if cb.Kind == core.Blackboard {
				backlog = 0
				if initialized[name] {
					backlog = 1
				}
			}
			cb.EndOfFrameBacklog = append(cb.EndOfFrameBacklog, backlog)
		}
	}

	for _, j := range jobs {
		for nextBoundary.LessEq(j.Time) {
			recordBoundary()
			nextBoundary = nextBoundary.Add(h)
			frame++
		}
		e := effects[j.Proc]
		for i, c := range e.reads {
			if c.Kind == core.Blackboard {
				readOK[i] = initialized[c.Name]
				continue
			}
			o := occ[c.Name]
			readOK[i] = o > 0
			cb := profile.channels[c.Name]
			if c.DrainReads {
				occ[c.Name] = 0
				cb.Consumed[frame] += o
			} else if o > 0 {
				occ[c.Name] = o - 1
				cb.Consumed[frame]++
			}
		}
		for _, w := range e.writes {
			if w.gateIdx >= 0 && !readOK[w.gateIdx] {
				continue
			}
			c := w.ch
			cb := profile.channels[c.Name]
			cb.Produced[frame]++
			if c.Kind == core.Blackboard {
				initialized[c.Name] = true
				continue
			}
			occ[c.Name]++
			if occ[c.Name] > cb.HighWater {
				cb.HighWater = occ[c.Name]
			}
		}
	}
	for !horizon.Less(nextBoundary) {
		recordBoundary()
		nextBoundary = nextBoundary.Add(h)
	}

	for _, name := range profile.order {
		cb := profile.channels[name]
		if cb.Kind == core.Blackboard {
			if initialized[name] {
				cb.HighWater = 1
			}
			continue
		}
		backlog := cb.EndOfFrameBacklog
		if len(backlog) < 2 {
			continue
		}
		growing := true
		for i := 1; i < len(backlog); i++ {
			if backlog[i] <= backlog[i-1] {
				growing = false
				break
			}
		}
		cb.Unbalanced = growing && backlog[len(backlog)-1] > backlog[0]
	}
	return profile, nil
}
