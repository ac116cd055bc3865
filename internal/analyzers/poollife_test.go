package analyzers

import (
	"strings"
	"testing"
)

// poolFixture builds a fixture module with a minimal internal/plan pool
// protocol and the given internal/serve source.
func poolFixture(serveSrc string) map[string]string {
	return map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/plan/plan.go": `package plan

type Report struct{ Entries []int }

type RunState struct{ inUse bool }

func (rs *RunState) Acquire() bool { return true }

func (rs *RunState) Release() bool { return true }

func (rs *RunState) Released() bool { return !rs.inUse }

func (rs *RunState) Reset() {}

func (rs *RunState) Run() (*Report, error) { return &Report{}, nil }
`,
		"internal/serve/serve.go": serveSrc,
	}
}

func TestPoolLifeDoubleAcquire(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func Double(rs *plan.RunState) {
	rs.Acquire()
	rs.Acquire()
}
`)), "poollife")
	if len(diags) != 1 {
		t.Fatalf("want one double-acquire diagnostic, got:\n%s", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{"Acquired again", "first Acquire at serve.go:6"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q: %s", want, msg)
		}
	}
}

func TestPoolLifeUseAfterRelease(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func UseAfter(rs *plan.RunState) {
	rs.Release()
	rs.Run()
}
`)), "poollife")
	if len(diags) != 1 {
		t.Fatalf("want one use-after-release diagnostic, got:\n%s", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{"run after Release", "serve.go:6"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q: %s", want, msg)
		}
	}
}

// The release flows through a helper: the interprocedural summary marks
// handBack as releasing its parameter.
func TestPoolLifeInterproceduralRelease(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func handBack(rs *plan.RunState) {
	rs.Release()
}

func UseAfterHelper(rs *plan.RunState) {
	handBack(rs)
	rs.Reset()
}
`)), "poollife")
	if len(diags) != 1 {
		t.Fatalf("want one diagnostic through the helper summary, got:\n%s", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "after Release") {
		t.Errorf("diagnostic missing the release witness: %s", diags[0].Message)
	}
}

// A report outlives a later Run/Reset on its owning state; the
// diagnostic carries the def-to-use witness (definition position, the
// invalidating call's position, the use position).
func TestPoolLifeStaleReportDefToUse(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func Stale(rs *plan.RunState) int {
	rep, _ := rs.Run()
	rs.Reset()
	return len(rep.Entries)
}
`)), "poollife")
	if len(diags) != 1 {
		t.Fatalf("want one stale-report diagnostic, got:\n%s", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{
		"report rep",
		"from the run at serve.go:6",
		"later Run/Reset on that state (serve.go:7)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q: %s", want, msg)
		}
	}
	if got := diags[0].Position.Line; got != 8 {
		t.Errorf("stale use reported at line %d, want the use line 8:\n%s", got, messages(diags))
	}
}

// Returning a report while a deferred Release pends hands pooled memory
// to the caller.
func TestPoolLifeReportEscapesDeferredRelease(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func Escape(rs *plan.RunState) *plan.Report {
	defer rs.Release()
	rep, _ := rs.Run()
	return rep
}
`)), "poollife")
	if len(diags) != 1 {
		t.Fatalf("want one escape diagnostic, got:\n%s", messages(diags))
	}
	for _, want := range []string{"escapes via return", "goes back to the pool"} {
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, diags[0].Message)
		}
	}
}

// The blessed shape — run, read the report, release only after the last
// read — is clean.
func TestPoolLifeHappyPathClean(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func Serve(rs *plan.RunState) int {
	rep, err := rs.Run()
	if err != nil {
		return 0
	}
	n := len(rep.Entries)
	rs.Release()
	return n
}
`)), "poollife")
	if len(diags) != 0 {
		t.Fatalf("happy path must be clean, got:\n%s", messages(diags))
	}
}

func TestPoolLifeSuppression(t *testing.T) {
	diags := only(checkAll(t, poolFixture(`package serve

import "fixture/internal/plan"

func Double(rs *plan.RunState) {
	rs.Acquire()
	rs.Acquire() // fppnlint:ignore -- re-arm path, audited
}
`)), "poollife")
	if len(diags) != 0 {
		t.Fatalf("fppnlint:ignore not honoured:\n%s", messages(diags))
	}
}
