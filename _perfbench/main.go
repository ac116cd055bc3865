// Command perfbench is the repository's end-to-end benchmark. It starts a
// prebuilt fppnd daemon as its own process, drives it over loopback with
// closed-loop clients, checks every response against reference answers,
// and prints the metrics as one JSON object on the last line of stdout.
// With -trace 1 it also replays the workload in-process, timing each
// layer's public entry points, and prints the per-layer metrics instead.
//
// Usage (from the repository root, after building the daemon):
//
//	perfbench -workload replay|design|scale -seed N -seconds S -trace 0|1 [-daemon path]
//
// _perfbench/run.sh builds both binaries and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many times a run sets the daemon up: setup_s is their
// median. The daemon of the middle one serves the measured window, so
// that the set-ups sample the host's load before and after it.
const setupRuns = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: replay, design or scale")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	bin := flag.String("daemon", filepath.Join(".bench_build", "fppnd"), "prebuilt fppnd binary")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// session is a daemon after warm-up, with the client connections that
// warmed it.
type session struct {
	d       *daemon
	clients []*http.Client
	setup   time.Duration
	warm    tally
}

// setUp execs the daemon and sends the workload's warm-up; setup time
// runs from the exec to the last warm-up answer.
func setUp(bin string, w *workload, ref *reference) (*session, error) {
	start := time.Now()
	d, err := startDaemon(bin, w.budgetMB)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	for range w.warmup {
		s.clients = append(s.clients, newClient())
	}
	s.warm, _ = runLoops(s.clients, d.base, w.warmup, time.Now(), time.Time{}, ref, nil)
	s.setup = time.Since(start)
	return s, nil
}

// window is what the measured window observed.
type window struct {
	tally
	steal         []stealSample
	elapsed       time.Duration
	before, after counters
	rssMB         float64
}

func (w *window) okCount() int {
	n := 0
	for _, o := range w.ok {
		n += len(o)
	}
	return n
}

// measure runs the workload's closed loops for d and reads the daemon's
// counters at both edges of the window.
func measure(s *session, w *workload, ref *reference, d time.Duration) (*window, error) {
	var m window
	var err error
	if m.before, err = s.d.snapshot(); err != nil {
		return nil, err
	}
	start := time.Now()
	sampler := startStealSampler(start)
	m.tally, m.elapsed = runLoops(s.clients, s.d.base, w.streams, start, start.Add(d), ref, w.wantCached)
	m.steal = sampler.finish()
	if m.after, err = s.d.snapshot(); err != nil {
		return nil, err
	}
	if m.rssMB, err = s.d.peakRSSMB(); err != nil {
		return nil, err
	}
	return &m, nil
}

// shapeErr checks the workload's cache shape on the window's counters:
// replay only hits; in design and scale every /compile misses and every
// /analyze hits.
func shapeErr(w *workload, m *window) error {
	misses := m.after.cache.Misses - m.before.cache.Misses
	hits := m.after.cache.Hits - m.before.cache.Hits
	compiles := int64(len(m.ok[kindCompile]))
	wantMisses, wantHits := int64(0), int64(len(m.ok[kindSimulate])+len(m.ok[kindAnalyze]))
	if w.missing {
		wantMisses = compiles
	} else {
		wantHits += compiles
	}
	if misses != wantMisses || hits != wantHits {
		return fmt.Errorf("cache shape: %d misses and %d hits in the window, want %d and %d", misses, hits, wantMisses, wantHits)
	}
	return nil
}

func run(name string, seed int64, d time.Duration, traced bool, bin string) (*result, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w (build it first; see run.sh)", err)
	}
	printProvenance(name, seed)

	// A traced run sets up once and splits its time between the daemon
	// window (for the daemon's counters) and the in-process traced replay.
	n := setupRuns
	if traced {
		n, d = 1, d/2
	}
	// The closed loops mostly wait on the daemon: one P for them leaves
	// the cores to the daemon and cuts run-to-run spread. The traced run
	// below gets every core back, like the daemon has.
	procs := runtime.GOMAXPROCS(1)
	var setups []float64
	var m *window
	res := &result{Correct: true}
	for i := 0; i < n; i++ {
		s, err := setUp(bin, w, ref)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		res.Attempted += s.warm.attempted
		res.Failed += s.warm.failed
		if i == n/2 {
			m, err = measure(s, w, ref, d)
		}
		if stopErr := s.d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	res.Attempted += m.attempted
	res.Failed += m.failed
	if m.failed == 0 {
		if err := shapeErr(w, m); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
		}
	}
	fmt.Printf("perfbench: %s seed %d: %d requests in %.2fs (%d failed); set-up %.3fs (median of %d)\n",
		name, seed, m.attempted, m.elapsed.Seconds(), m.failed, median(setups), len(setups))
	for k := kind(0); k < numKinds; k++ {
		if len(m.ok[k]) == 0 {
			continue
		}
		lat := latencies(m.ok[k])
		fmt.Printf("perfbench:   %s n=%d", k, len(lat))
		for _, q := range []float64{0.5, 0.75, 0.9, 0.99, 0.999} {
			if v, ok := lat.quantileMs(q); ok {
				fmt.Printf(" p%g=%.3fms", 100*q, v)
			}
		}
		fmt.Printf(" max=%.3fms\n", float64(lat[len(lat)-1])/float64(time.Millisecond))
	}

	runtime.GOMAXPROCS(procs)
	if traced {
		st, tr, err := traceRun(w, ref, d)
		if err != nil {
			return nil, err
		}
		res.Attempted += st.attempted
		res.Failed += st.failed
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.csv", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("perfbench: %d spans of %d traced requests in %s\n", len(tr.spans), st.requests, path)
		res.Metrics = layerMetrics(w, m, st)
	} else {
		res.Metrics, err = endToEndMetrics(w, m, setups)
		if err != nil {
			return nil, err
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// endToEndMetrics are what a user of the daemon sees, taken over the
// window's calm stretches (see calmSteal). Throughput and the tail are
// medians over slices of the window (see sliceRate and blockQuantileMs).
func endToEndMetrics(w *workload, m *window, setups []float64) (map[string]metric, error) {
	calm := calmObs(m.ok[w.primary], m.steal)
	fmt.Printf("perfbench: host steal %.1f%% over the window; %d of %d %s requests ran in calm stretches\n",
		100*stealShare(m.steal, 0, m.elapsed), len(calm), len(m.ok[w.primary]), w.primary)
	primary := inOrder(calm, w.cycle)
	p50, ok := latencies(primary).quantileMs(0.5)
	if !ok {
		return nil, fmt.Errorf("fewer than %d successful %s requests in the window", w.cycle, w.primary)
	}
	tail := p50
	if w.tailQ > 0.5 {
		size := blockSize(w.tailQ, w.cycle)
		var blocks int
		if tail, blocks, ok = blockQuantileMs(primary, w.tailQ, size); !ok {
			return nil, fmt.Errorf("%d %s requests cannot support p%g in blocks of %d", len(primary), w.primary, 100*w.tailQ, size)
		}
		fmt.Printf("perfbench: tail_ms is the median p%g of %d blocks of %d %s requests\n", 100*w.tailQ, blocks, size, w.primary)
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"req_per_s":   {sliceRate(m.completions(), m.elapsed, m.steal), "req/s"},
		"p50_ms":      {p50, "ms"},
		"tail_ms":     {tail, "ms"},
		"peak_rss_mb": {m.rssMB, "MB"},
	}, nil
}

// layerMetrics combines the traced run with the daemon's counters from
// the window.
func layerMetrics(w *workload, m *window, st *layerStats) map[string]metric {
	before, after := m.before, m.after
	okReqs := float64(m.okCount())
	perReq := func(d uint64) float64 { return float64(d) / okReqs }
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	cores := float64(runtime.NumCPU()) * m.elapsed.Seconds()
	analyze := latencies(m.ok[kindAnalyze])
	analyzeP50, _ := analyze.quantileMs(0.5)
	analyzeP90, _ := analyze.quantileMs(0.9)
	clientP50, _ := latencies(m.ok[w.primary]).quantileMs(0.5)
	handlerP50 := median(st.handler[w.primary])
	spanMs := func(name string) float64 { return median(st.spanMs[name]) }
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return map[string]metric{
		"cli.load_ms":               {median(st.loadMs), "ms"},
		"taskgraph.derive_ms":       {spanMs("taskgraph.derive"), "ms"},
		"taskgraph.jobs":            {mean(st.jobs), "count"},
		"taskgraph.edges":           {mean(st.edges), "count"},
		"sched.schedule_ms":         {spanMs("sched.schedule"), "ms"},
		"sched.validate_ms":         {spanMs("sched.validate"), "ms"},
		"plan.compile_ms":           {spanMs("plan.compile"), "ms"},
		"plan.run_ms":               {spanMs("plan.run"), "ms"},
		"plan.run_allocs":           {st.runAllocs, "count"},
		"plan.entries":              {mean(st.entries), "count"},
		"plan.skipped":              {mean(st.skipped), "count"},
		"lint.run_ms":               {spanMs("lint.run"), "ms"},
		"feas.analyze_ms":           {spanMs("feas.analyze"), "ms"},
		"hb.verify_ms":              {spanMs("hb.verify"), "ms"},
		"hb.pairs":                  {mean(st.pairs), "count"},
		"serve.handler_simulate_us": {median(st.handler[kindSimulate]), "us"},
		"serve.handler_compile_us":  {median(st.handler[kindCompile]), "us"},
		"serve.handler_analyze_us":  {median(st.handler[kindAnalyze]), "us"},
		"serve.self_us":             {median(st.selfUs), "us"},
		"serve.states_created":      {float64(after.cache.StatesCreated - before.cache.StatesCreated), "count"},
		"serve.hit_ratio":           {hitRatio, "ratio"},
		"serve.misses":              {misses, "count"},
		"serve.evictions":           {float64(after.cache.Evictions - before.cache.Evictions), "count"},
		"fppnd.gc_cycles":           {float64(after.mem.NumGC - before.mem.NumGC), "count"},
		"fppnd.gc_pause_ms":         {float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"},
		"fppnd.allocs_per_req":      {perReq(after.mem.Mallocs - before.mem.Mallocs), "count"},
		"fppnd.bytes_per_req":       {perReq(after.mem.TotalAlloc - before.mem.TotalAlloc), "B"},
		"fppnd.transport_us":        {1000*clientP50 - handlerP50, "us"},
		"fppnd.cpu_share":           {(after.cpu - before.cpu).Seconds() / cores, "ratio"},
		"loadgen.cpu_share":         {(after.selfCPU - before.selfCPU).Seconds() / cores, "ratio"},
		"loadgen.req_per_s":         {okReqs / m.elapsed.Seconds(), "req/s"},
		"loadgen.analyze_p50_ms":    {analyzeP50, "ms"},
		"loadgen.analyze_p90_ms":    {analyzeP90, "ms"},
		"trace.req_per_s":           {float64(st.requests) / st.elapsed.Seconds(), "req/s"},
		"host.steal_share":          {stealShare(m.steal, 0, m.elapsed), "ratio"},
	}
}
