// Package fppn is a Go implementation of Fixed-Priority Process Networks
// (FPPN), the deterministic model of computation for real-time
// multiprocessor applications introduced by Poplavko, Socci, Bourgos,
// Bensalem and Bozga in "Models for Deterministic Execution of Real-Time
// Multiprocessor Applications" (DATE 2015).
//
// The package is a façade over the implementation packages and exposes the
// full tool flow of the paper:
//
//	net := fppn.NewNetwork("app")            // model an FPPN
//	net.AddPeriodic("prod", fppn.Ms(100), fppn.Ms(100), fppn.Ms(10), body)
//	net.AddPeriodic("cons", fppn.Ms(100), fppn.Ms(100), fppn.Ms(10), body2)
//	net.Connect("prod", "cons", "data", fppn.FIFO)
//	net.Priority("prod", "cons")
//
//	ref, _ := fppn.RunZeroDelay(net, horizon, fppn.ZeroDelayOptions{...})
//
//	tg, _ := fppn.DeriveTaskGraph(net)        // Section III-A
//	fr, _ := fppn.Schedulability(tg, 2, fppn.FeasOptions{}) // sporadic-DAG tests
//	s, _ := fppn.FindFeasible(tg, 2)          // Section III-B
//	rep, _ := fppn.Run(s, fppn.RunConfig{Frames: 10}) // Section IV
//
//	prog, _ := fppn.GenerateTA(s, fppn.TAConfig{Frames: 10}) // Section V tool flow
//
// Determinism (Proposition 2.1) and runtime correctness (Proposition 4.1)
// are checkable by comparing Report.Outputs against the zero-delay
// reference with fppn.OutputsEqual.
package fppn

import (
	"repro/internal/cli"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/lint"
	"repro/internal/platform"
	"repro/internal/rational"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/taskgraph"
	"repro/internal/unisched"
)

// Time is an exact rational time stamp or duration, in seconds.
type Time = rational.Rat

// Ms returns a Time of n milliseconds.
func Ms(n int64) Time { return rational.Milli(n) }

// Seconds returns a Time of n seconds.
func Seconds(n int64) Time { return rational.FromInt(n) }

// TimeOf returns the exact rational num/den seconds.
func TimeOf(num, den int64) Time { return rational.New(num, den) }

// Model-of-computation types (package internal/core).
type (
	// Network is a fixed-priority process network under construction.
	Network = core.Network
	// Process is one FPPN process.
	Process = core.Process
	// Channel is an internal channel description.
	Channel = core.Channel
	// Generator is an event generator (periodic or sporadic).
	Generator = core.Generator
	// Behavior is the functional body of a process.
	Behavior = core.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = core.BehaviorFunc
	// JobContext is the channel-access interface passed to behaviours.
	JobContext = core.JobContext
	// Value is a data sample.
	Value = core.Value
	// Sample is one external-channel sample.
	Sample = core.Sample
	// Trace is an execution action trace.
	Trace = core.Trace
	// ZeroDelayOptions configures the reference executor.
	ZeroDelayOptions = core.ZeroDelayOptions
	// ZeroDelayResult is the reference executor's outcome.
	ZeroDelayResult = core.ZeroDelayResult
	// Machine executes jobs against shared channel state.
	Machine = core.Machine
)

// Channel kinds and generator kinds.
const (
	// FIFO is a first-in-first-out channel.
	FIFO = core.FIFO
	// Blackboard is a last-value channel.
	Blackboard = core.Blackboard
	// Periodic generators fire bursts every period.
	Periodic = core.Periodic
	// Sporadic generators fire at most Burst events per Period window.
	Sporadic = core.Sporadic
)

// NewNetwork returns an empty network with the given name.
func NewNetwork(name string) *Network { return core.NewNetwork(name) }

// RunZeroDelay executes the network under the zero-delay semantics of
// Section II — the functional-determinism reference.
func RunZeroDelay(net *Network, horizon Time, opts ZeroDelayOptions) (*ZeroDelayResult, error) {
	return core.RunZeroDelay(net, horizon, opts)
}

// OutputsEqual compares two external-output maps value-for-value (time
// stamps are ignored: the real-time semantics legally produces the same
// values at different instants than the zero-delay one).
func OutputsEqual(a, b map[string][]Sample) bool { return core.SamplesEqual(a, b) }

// DiffOutputs describes the first difference between two output maps, or
// returns "".
func DiffOutputs(a, b map[string][]Sample) string { return core.DiffSamples(a, b) }

// Task-graph types (package internal/taskgraph).
type (
	// TaskGraph is a derived task graph (Definition 3.1).
	TaskGraph = taskgraph.TaskGraph
	// Job is a task-graph node p[k] with (A_i, D_i, C_i).
	Job = taskgraph.Job
)

// DeriveTaskGraph derives the static task graph of a schedulable network
// over one hyperperiod (Section III-A).
func DeriveTaskGraph(net *Network) (*TaskGraph, error) { return taskgraph.Derive(net) }

// Scheduling types (package internal/sched).
type (
	// Schedule is a static schedule (µ_i, s_i per job).
	Schedule = sched.Schedule
	// Heuristic selects the schedule-priority order SP.
	Heuristic = sched.Heuristic
	// GanttEntry is one executed interval on a processor.
	GanttEntry = sched.GanttEntry
	// PortfolioOptions configures the concurrent heuristic portfolio.
	PortfolioOptions = sched.PortfolioOptions
	// HeuristicResult is one lane of a portfolio race.
	HeuristicResult = sched.HeuristicResult
)

// Schedule-priority heuristics.
const (
	// ALAPEDF is EDF on precedence-adjusted (ALAP) deadlines.
	ALAPEDF = sched.ALAPEDF
	// BLevel prefers jobs heading the longest WCET chains.
	BLevel = sched.BLevel
	// DeadlineMonotonic orders by relative deadline.
	DeadlineMonotonic = sched.DeadlineMonotonic
	// EDF orders by nominal absolute deadline.
	EDF = sched.EDF
)

// ListSchedule runs the non-preemptive list scheduler on m processors
// (Section III-B). The result may be infeasible; check Schedule.Validate.
func ListSchedule(tg *TaskGraph, m int, h Heuristic) (*Schedule, error) {
	return sched.ListSchedule(tg, m, h)
}

// FindFeasible tries every heuristic and returns the first feasible
// schedule on m processors.
func FindFeasible(tg *TaskGraph, m int) (*Schedule, error) { return sched.FindFeasible(tg, m) }

// SchedulePortfolio races all heuristics concurrently and returns the best
// feasible schedule under the documented total order (minimal makespan,
// heuristic-order tie-break). The result is independent of Workers.
func SchedulePortfolio(tg *TaskGraph, m int, opts PortfolioOptions) (*Schedule, error) {
	return sched.Portfolio(tg, m, opts)
}

// RunPortfolio races all heuristics concurrently and returns every lane's
// outcome in heuristic order, feasible or not.
func RunPortfolio(tg *TaskGraph, m int, opts PortfolioOptions) []HeuristicResult {
	return sched.RunPortfolio(tg, m, opts)
}

// MinProcessors finds the smallest processor count (up to max) admitting a
// feasible schedule.
func MinProcessors(tg *TaskGraph, max int) (*Schedule, error) {
	return sched.MinProcessors(tg, max)
}

// Platform types (package internal/platform).
type (
	// OverheadModel reproduces the paper's frame-management overheads.
	OverheadModel = platform.OverheadModel
	// ExecModel yields actual execution times per job instance.
	ExecModel = platform.ExecModel
)

// MPPAFFTOverhead is the overhead measured in the paper's FFT experiment:
// 41 ms before the first frame, 20 ms before every later one.
func MPPAFFTOverhead() OverheadModel { return platform.MPPAFFTOverhead() }

// WCETExec runs every job at its worst-case execution time.
func WCETExec() ExecModel { return platform.WCETExec() }

// JitterExec draws deterministic per-instance execution times in
// [lo·C, C], modelling measurement-based WCET estimation.
func JitterExec(seed int64, lo Time) (ExecModel, error) { return platform.JitterExec(seed, lo) }

// Runtime types (packages internal/rt and internal/plan).
type (
	// RunConfig parameterizes a runtime execution.
	RunConfig = rt.Config
	// Report is a runtime execution report.
	Report = rt.Report
	// Miss is a runtime deadline violation.
	Miss = rt.Miss
	// ExecPlan is a compiled execution plan: the schedule lowered to
	// interned, index-based tables for repeated Run/RunConcurrent calls.
	// An ExecPlan is immutable after Compile and safe to share between
	// goroutines; per-run mutable state lives in a RunState.
	ExecPlan = rt.Plan
	// RunState is the per-run execution context of a compiled plan:
	// repeated-execution callers create one via ExecPlan.NewRunState and
	// reuse it so its warm arenas survive across runs.
	RunState = rt.RunState
)

// Run executes the online static-order policy of Section IV as an exact
// discrete-event computation. It compiles the schedule on every call; use
// Compile + ExecPlan.Run when executing the same schedule repeatedly.
func Run(s *Schedule, cfg RunConfig) (*Report, error) { return rt.Run(s, cfg) }

// RunConcurrent executes the policy with one goroutine per processor
// against a virtual clock — determinism under real concurrency.
func RunConcurrent(s *Schedule, cfg RunConfig) (*Report, error) { return rt.RunConcurrent(s, cfg) }

// Compile lowers a static schedule into a reusable execution plan:
// validation, name interning, the combined static order and the frame-0
// invocation tables are computed once, and every ExecPlan.Run /
// ExecPlan.RunConcurrent call replays them.
func Compile(s *Schedule) (*ExecPlan, error) { return rt.Compile(s) }

// Happens-before verification types (package internal/hb).
type (
	// HBVerdict is the outcome of the happens-before verification of a
	// compiled plan: race-free, or a minimal unordered witness pair.
	HBVerdict = hb.Verdict
	// HBWitness is one unordered conflicting access pair.
	HBWitness = hb.Witness
	// HBAccess is one side of a witness: a job instance touching a
	// resource in a specific frame.
	HBAccess = hb.Access
)

// VerifyDeterminism constructs the happens-before partial order of a
// compiled plan — per-processor static-order chains, the derived
// precedence edges, and the frame timing bounds of Proposition 4.1 — and
// checks that it orders every conflicting access pair (process state
// between instances, channel writes against reads). A race-free verdict
// certifies Proposition 2.1 for the plan: repeated Run and RunConcurrent
// executions produce identical results. A failed verdict carries the
// minimal unordered witness pair.
func VerifyDeterminism(p *ExecPlan) HBVerdict { return hb.Verify(p) }

// Code-generation types (package internal/codegen).
type (
	// TAConfig parameterizes FPPN -> timed-automata generation.
	TAConfig = codegen.Config
	// TAProgram is a generated timed-automata system.
	TAProgram = codegen.Program
)

// GenerateTA translates the network and its schedule into a network of
// timed automata, the paper's prototype tool flow.
func GenerateTA(s *Schedule, cfg TAConfig) (*TAProgram, error) { return codegen.Generate(s, cfg) }

// Static-analysis types (package internal/lint).
type (
	// LintReport is the outcome of one lint run over a network.
	LintReport = lint.Report
	// LintFinding is one structured diagnostic (code, severity, subject).
	LintFinding = lint.Finding
	// LintOptions tunes the warning-severity rules.
	LintOptions = lint.Options
	// LintRule describes one registered diagnostic.
	LintRule = lint.Rule
	// LintSeverity ranks findings (info, warning, error).
	LintSeverity = lint.Severity
)

// Lint severities.
const (
	// LintInfo marks observations with no action required.
	LintInfo = lint.Info
	// LintWarning marks conditions that compile but deserve attention.
	LintWarning = lint.Warning
	// LintError marks violations of the model's hard preconditions.
	LintError = lint.Error
)

// Lint runs the structured diagnostics engine over the network: the
// error-severity findings are exactly the ValidateSchedulable rules, and
// warning rules flag timing and topology hazards (see DESIGN.md for the
// FPPN001–020 catalogue).
func Lint(net *Network, opts LintOptions) *LintReport { return lint.Run(net, opts) }

// LintRules returns a copy of the diagnostic registry, in report order.
func LintRules() []LintRule {
	out := make([]LintRule, len(lint.Rules))
	copy(out, lint.Rules)
	return out
}

// Schedulability-analysis types (package internal/feas).
type (
	// FeasReport is the outcome of the schedulability suite at one
	// processor count.
	FeasReport = feas.Report
	// FeasResult is one test's structured verdict.
	FeasResult = feas.Result
	// FeasWorkload is the shared volume / critical-path / load extraction.
	FeasWorkload = feas.Workload
	// FeasTest identifies one schedulability test (EDF, DM or RTA).
	FeasTest = feas.Test
	// FeasVerdict is feasible, infeasible or unknown.
	FeasVerdict = feas.Verdict
	// FeasOptions tunes an analysis run.
	FeasOptions = feas.Options
)

// Schedulability tests and verdicts.
const (
	// FeasEDF is the deadline-based test (demand criterion + chain bound).
	FeasEDF = feas.EDF
	// FeasDM is the deadline-monotonic fixed-priority test.
	FeasDM = feas.DM
	// FeasRTA is the iterative response-time refinement.
	FeasRTA = feas.RTA
	// Feasible means the test proves a deadline-meeting schedule exists.
	Feasible = feas.Feasible
	// Infeasible means the test proves no schedule can meet all deadlines.
	Infeasible = feas.Infeasible
	// UnknownFeasibility means the test can neither prove nor refute.
	UnknownFeasibility = feas.Unknown
)

// Schedulability runs the sporadic-DAG schedulability suite on the
// derived task graph for m identical processors: per-test verdicts with
// witnesses and bounds, plus the workload extraction (volume, span,
// precedence-aware load). Feasible-certified verdicts guarantee
// FindFeasible succeeds; infeasible verdicts imply MinProcessors > m.
func Schedulability(tg *TaskGraph, m int, opts FeasOptions) (*FeasReport, error) {
	return feas.Analyze(tg, m, opts)
}

// Baseline types (package internal/unisched).
type (
	// UniPriority is a fixed uniprocessor priority assignment.
	UniPriority = unisched.Priority
	// UniFunctionalResult is the outcome of the idealized uniprocessor run.
	UniFunctionalResult = unisched.FunctionalResult
)

// RateMonotonic derives rate-monotonic uniprocessor priorities.
func RateMonotonic(net *Network) UniPriority { return unisched.RateMonotonic(net) }

// PriorityConsistent checks that uniprocessor priorities agree with the
// functional-priority DAG — the condition under which the legacy system and
// the FPPN are functionally equivalent.
func PriorityConsistent(net *Network, pr UniPriority) error { return unisched.Consistent(net, pr) }

// RunUniprocessor executes the idealized fixed-priority uniprocessor
// baseline (jobs ordered by release time, then priority).
func RunUniprocessor(net *Network, horizon Time, pr UniPriority,
	events map[string][]Time, inputs map[string][]Value) (*UniFunctionalResult, error) {
	return unisched.RunFunctional(net, horizon, pr, events, inputs, false)
}

// Serving-layer types (packages internal/cli and internal/serve): the
// content-addressing and caching surface behind the fppnd daemon.
type (
	// Model is a loaded, canonicalized and content-digested network.
	Model = cli.Model
	// ServeOptions tunes a serving instance (cache budget, request
	// limits, compile fan-out).
	ServeOptions = serve.Options
	// ServeStats is one point-in-time snapshot of a serving instance's
	// counters and latency histograms.
	ServeStats = serve.Stats
)

// LoadModel resolves a model spec — a registry application name
// ("signal", "fft", "fft-overhead", "fms", "fms-original") or a synthetic
// "scale:N" network — to a built network with its canonical JSON and
// sha256 content digest.
func LoadModel(spec string) (*Model, error) { return cli.LoadModel(spec) }

// CanonicalModel returns the canonical JSON serialization of a network:
// the deterministic export used for content addressing, byte-identical
// across runs for structurally identical models.
func CanonicalModel(net *Network) ([]byte, error) { return cli.CanonicalJSON(net) }

// ModelDigest returns the sha256 hex digest of the canonical JSON — the
// content address under which the serving layer caches every pipeline
// stage derived from the model.
func ModelDigest(net *Network) (string, error) { return cli.DigestNetwork(net) }

// NewServer returns the compile-and-simulate HTTP service of cmd/fppnd:
// a content-addressed plan cache with singleflight compiles and pooled
// run states behind POST /compile, /simulate, /analyze and GET /healthz,
// /metrics. The returned handler is safe for concurrent use.
func NewServer(opts ServeOptions) *serve.Server { return serve.NewServer(opts) }
