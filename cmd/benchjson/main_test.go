package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine("BenchmarkFig1ZeroDelay-8   \t39511\t  30025 ns/op\t   20152 B/op\t     243 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if name != "BenchmarkFig1ZeroDelay" {
		t.Fatalf("name = %q, want GOMAXPROCS suffix stripped", name)
	}
	if r.Iterations != 39511 || r.NsPerOp != 30025 {
		t.Fatalf("iterations/ns = %d/%v", r.Iterations, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 20152 {
		t.Fatalf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 243 {
		t.Fatalf("allocs/op = %v", r.AllocsPerOp)
	}
}

func TestParseLineNoBenchmem(t *testing.T) {
	name, r, ok := parseLine("BenchmarkX 100 12.5 ns/op")
	if !ok || name != "BenchmarkX" {
		t.Fatalf("ok=%v name=%q", ok, name)
	}
	if r.NsPerOp != 12.5 || r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("want null memory metrics without -benchmem, got %+v", r)
	}
}

func TestCompareResultsFlagsRegressions(t *testing.T) {
	baseline := map[string]Result{
		"BenchmarkFast":    {NsPerOp: 1000},
		"BenchmarkSlow":    {NsPerOp: 1000},
		"BenchmarkRemoved": {NsPerOp: 500},
	}
	fresh := map[string]Result{
		"BenchmarkFast": {NsPerOp: 400},  // improvement
		"BenchmarkSlow": {NsPerOp: 1500}, // +50%: beyond a 25% threshold
		"BenchmarkNew":  {NsPerOp: 123},
	}
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25); n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkSlow", "REGRESSION", "+50.0%", // the regression, marked
		"-60.0%",  // the improvement, unmarked
		"new",     // BenchmarkNew is informational
		"removed", // BenchmarkRemoved is informational
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "REGRESSION") != 1 {
		t.Errorf("exactly one REGRESSION mark expected:\n%s", out)
	}
}

func TestCompareResultsWithinThreshold(t *testing.T) {
	baseline := map[string]Result{"BenchmarkX": {NsPerOp: 1000}}
	fresh := map[string]Result{"BenchmarkX": {NsPerOp: 1200}} // +20% under 25%
	var sb strings.Builder
	if n := compareResults(&sb, baseline, fresh, 25); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, sb.String())
	}
}

func TestCurrentMetaRecordsRuntime(t *testing.T) {
	m := currentMeta()
	if m.GoMaxProcs < 1 {
		t.Fatalf("GoMaxProcs = %d, want >= 1", m.GoMaxProcs)
	}
	if !strings.HasPrefix(m.GoVersion, "go") {
		t.Fatalf("GoVersion = %q, want a go version string", m.GoVersion)
	}
}

// TestCurrentMetaMarksDirtyTree checks that _meta names the commit and
// flags a working tree whose tracked files differ from it.
func TestCurrentMetaMarksDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f")
	git("commit", "-q", "-m", "c")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	if m := currentMeta(); m.Commit == "" || m.Dirty {
		t.Fatalf("clean tree: meta %+v, want a commit and not dirty", m)
	}
	if err := os.WriteFile(file, []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if m := currentMeta(); !m.Dirty {
		t.Fatalf("modified tree: meta %+v, want dirty", m)
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t1.234s",
		"BenchmarkBroken only-three fields",
		"",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

func TestParseLineCapturesExtraUnits(t *testing.T) {
	name, r, ok := parseLine("BenchmarkServeSimulateFMSParallel-8   2215   122305 ns/op   196608 p99-ns   8176 req/s   9130 B/op   48 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if name != "BenchmarkServeSimulateFMSParallel" {
		t.Fatalf("name = %q", name)
	}
	if r.NsPerOp != 122305 {
		t.Fatalf("ns/op = %v", r.NsPerOp)
	}
	if r.Extra["p99-ns"] != 196608 || r.Extra["req/s"] != 8176 {
		t.Fatalf("extra units not captured: %v", r.Extra)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 9130 {
		t.Fatalf("B/op lost next to extra units: %v", r.BytesPerOp)
	}
}

func TestLoadResultsRoundTripsExtra(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := `{
  "_meta": {"gomaxprocs": 8, "go_version": "go1.x"},
  "BenchmarkOld": {"iterations": 10, "ns_per_op": 5, "bytes_per_op": null, "allocs_per_op": null},
  "BenchmarkServe": {"iterations": 2, "ns_per_op": 7, "bytes_per_op": null, "allocs_per_op": null, "extra": {"req/s": 8000}}
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d results (metadata not skipped?): %v", len(got), got)
	}
	if got["BenchmarkServe"].Extra["req/s"] != 8000 {
		t.Fatalf("extra lost on load: %+v", got["BenchmarkServe"])
	}

	// Merge semantics: fresh results overlay the loaded ones.
	fresh := map[string]Result{"BenchmarkServe": {Iterations: 5, NsPerOp: 6}}
	for n, r := range fresh {
		got[n] = r
	}
	if got["BenchmarkServe"].NsPerOp != 6 || got["BenchmarkOld"].NsPerOp != 5 {
		t.Fatalf("merge overlay wrong: %v", got)
	}
}
