// Command benchjson converts `go test -bench` text output into a JSON
// document mapping benchmark name to its measured metrics (iterations,
// ns/op, B/op, allocs/op). `make bench-json` pipes the full benchmark run
// through it to produce BENCH_fppn.json, the machine-readable companion of
// the EXPERIMENTS.md performance tables.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./... | benchjson [-o BENCH_fppn.json]
//	go test -bench . -run '^$' ./... | benchjson -compare BENCH_fppn.json [-threshold 25]
//	go test -bench ServeSimulate -run '^$' ./internal/serve | benchjson -merge BENCH_fppn.json -o BENCH_fppn.json
//
// With -merge, the named JSON document is loaded first and the fresh
// results are overlaid onto it, so a targeted rerun (one package, one
// benchmark filter) updates its entries without discarding the rest of
// the record; the "_meta" provenance is refreshed to the merging run.
//
// Custom units reported via testing.B.ReportMetric (e.g. "req/s",
// "p99-ns") are captured under the per-benchmark "extra" key instead of
// being dropped.
//
// Lines that are not benchmark results (package headers, PASS/ok trailers)
// are ignored. The GOMAXPROCS suffix (-8 in BenchmarkFoo-8) is stripped so
// the keys are stable across machines. The document carries provenance
// under the reserved "_meta" key (commit, whether the working tree had
// uncommitted changes, GOMAXPROCS, go version);
// -compare ignores "_"-prefixed keys, so records with and without
// metadata diff cleanly.
//
// With -compare, the fresh results are diffed against a previously recorded
// JSON document: a per-benchmark table of old/new ns/op and the relative
// delta goes to stderr, and any benchmark slower than the baseline by more
// than -threshold percent makes the run fail. Benchmarks present on only
// one side are listed informationally and never fail the comparison.
//
// Exit status: 0 on success, 1 if the input contains no benchmark results
// or the output cannot be written, 2 if -compare found regressions beyond
// the threshold.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result holds the metrics of one benchmark. B/op and allocs/op are
// pointers so benchmarks run without -benchmem serialize as null rather
// than a misleading zero.
type Result struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// Extra holds custom units emitted via testing.B.ReportMetric, e.g.
	// the serving tier's "req/s" and "p99-ns".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Meta records the provenance of a benchmark document under the reserved
// "_meta" key: the commit the numbers were measured at and the parallelism
// they were measured with. Keys starting with "_" are ignored by -compare,
// so older records without metadata still diff cleanly.
type Meta struct {
	Commit string `json:"commit,omitempty"`
	// Dirty records that tracked files differed from Commit, so the
	// numbers were measured on an uncommitted working tree atop it.
	Dirty      bool   `json:"dirty,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// currentMeta collects the provenance of this run. The commit hash is
// best-effort: outside a git checkout it is simply omitted.
func currentMeta() Meta {
	m := Meta{GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		// git diff --quiet exits 1 exactly when tracked files differ.
		var exit *exec.ExitError
		err := exec.Command("git", "diff", "--quiet", "HEAD").Run()
		m.Dirty = errors.As(err, &exit) && exit.ExitCode() == 1
	}
	return m
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkFig1ZeroDelay-8   39511   30025 ns/op   20152 B/op   243 allocs/op
//
// returning ok=false for any line that is not a benchmark result.
func parseLine(line string) (name string, r Result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r.Iterations = iters
	// The remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return name, r, true
}

// compareResults diffs fresh results against a recorded baseline, writing a
// per-benchmark ns/op table to w. A benchmark regresses when its ns/op
// exceeds the baseline by more than threshold percent; the count of such
// regressions is returned. Benchmarks on only one side never count.
func compareResults(w io.Writer, baseline, fresh map[string]Result, threshold float64) int {
	names := make([]string, 0, len(baseline)+len(fresh))
	for n := range baseline {
		names = append(names, n)
	}
	for n := range fresh {
		if _, ok := baseline[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	wide := 0
	for _, n := range names {
		if len(n) > wide {
			wide = len(n)
		}
	}
	regressions := 0
	fmt.Fprintf(w, "%-*s  %14s  %14s  %9s\n", wide, "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		old, haveOld := baseline[n]
		cur, haveNew := fresh[n]
		switch {
		case !haveNew:
			fmt.Fprintf(w, "%-*s  %14.1f  %14s  %9s\n", wide, n, old.NsPerOp, "-", "removed")
		case !haveOld:
			fmt.Fprintf(w, "%-*s  %14s  %14.1f  %9s\n", wide, n, "-", cur.NsPerOp, "new")
		default:
			delta := 100 * (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-*s  %14.1f  %14.1f  %+8.1f%%%s\n", wide, n, old.NsPerOp, cur.NsPerOp, delta, mark)
		}
	}
	return regressions
}

// loadResults reads a previously written benchmark document, skipping the
// "_"-prefixed metadata keys.
func loadResults(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rawDoc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rawDoc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	doc := make(map[string]Result, len(rawDoc))
	for n, msg := range rawDoc {
		if strings.HasPrefix(n, "_") {
			continue
		}
		var r Result
		if err := json.Unmarshal(msg, &r); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, n, err)
		}
		doc[n] = r
	}
	return doc, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to diff against; regressions beyond -threshold fail the run")
	merge := flag.String("merge", "", "existing JSON document to overlay the fresh results onto before writing")
	threshold := flag.Float64("threshold", 25, "allowed ns/op regression over the -compare baseline, in percent")
	flag.Parse()

	results := make(map[string]Result)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			results[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	fresh := len(results)
	if *merge != "" {
		base, err := loadResults(*merge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for n, r := range results {
			base[n] = r
		}
		results = base
	}

	// Marshal with sorted keys (encoding/json sorts map keys, but build the
	// ordered document explicitly so the count line below matches it).
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)

	doc := make(map[string]any, len(results)+1)
	for n, r := range results {
		doc[n] = r
	}
	doc["_meta"] = currentMeta()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')

	if *out == "" && *compare == "" {
		os.Stdout.Write(data)
	} else if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *merge != "" {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks (%d fresh, merged over %s)\n", len(names), fresh, *merge)
	} else {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(names))
	}

	if *compare != "" {
		baseline, err := loadResults(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if n := compareResults(os.Stderr, baseline, results, *threshold); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% over %s\n",
				n, *threshold, *compare)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression beyond %.0f%% over %s\n", *threshold, *compare)
	}
}
