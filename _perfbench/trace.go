package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/hb"
	"repro/internal/lint"
	"repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/taskgraph"
)

// maxAnalyzeJobs mirrors the daemon's default -max-analyze-jobs gate.
const maxAnalyzeJobs = 4096

// span is one timed call. A request span has Parent -1; the layer calls
// it made are its children; the in-process handler timing of the same
// request is a second root with the same Req.
type span struct {
	Name       string
	Parent     int
	Req        int
	Start, End time.Duration // since the traced run began
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent, req int) int {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Req: req, Start: time.Since(tr.t0)})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) time.Duration {
	tr.spans[id].End = time.Since(tr.t0)
	return tr.spans[id].End - tr.spans[id].Start
}

// child times fn as a child span of parent and returns its duration.
func (tr *tracer) child(name string, parent, req int, fn func()) time.Duration {
	id := tr.begin(name, parent, req)
	fn()
	return tr.end(id)
}

// write stores the spans as CSV: id,parent,req,name,start_ns,end_ns.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for i, s := range tr.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.Parent, s.Req, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats aggregates a traced run per layer.
type layerStats struct {
	spanMs  map[string][]float64 // layer span name -> per-call ms
	handler [numKinds][]float64  // in-process ServeHTTP µs per kind
	selfUs  []float64            // primary kind: handler minus layer spans
	jobs    []float64
	edges   []float64
	entries []float64
	skipped []float64
	pairs   []float64
	loadMs  []float64
	// runAllocs is heap allocations per warm RunState.Run.
	runAllocs float64
	requests  int
	elapsed   time.Duration
	attempted int
	failed    int
}

// pipeline is a compiled (model, M, heuristic) key held by the traced run.
type pipeline struct {
	model *cli.Model
	tg    *taskgraph.TaskGraph
	plan  *plan.Plan
	rs    *plan.RunState
	// inputs are the external input samples of the key's frame count,
	// built once as the daemon's cache entry does.
	inputs map[string][]core.Value
	edges  int
}

func compilePipeline(m *cli.Model, r request) (*pipeline, error) {
	tg, err := taskgraph.DeriveOpts(m.Net, taskgraph.Options{})
	if err != nil {
		return nil, err
	}
	h, err := cli.ParseHeuristic(r.job.Heuristic)
	if err != nil {
		return nil, err
	}
	s, err := sched.ListSchedule(tg, r.job.M, h)
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(s)
	if err != nil {
		return nil, err
	}
	return &pipeline{model: m, tg: tg, plan: p, rs: p.NewRunState()}, nil
}

// serveOnce runs the daemon's handler in-process on a request body.
func serveOnce(srv *serve.Server, r request) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.kind.path(), bytes.NewReader(r.body)))
	return rec.Code, rec.Body.Bytes()
}

// traceRun replays the workload's request sequence in-process for d: for
// each request it makes the calls the daemon's handler makes, through the
// layers' public functions, as child spans of one request span; then it
// times serve.Server.ServeHTTP on the identical body.
func traceRun(w *workload, ref *reference, d time.Duration) (*layerStats, *tracer, error) {
	st := &layerStats{spanMs: map[string][]float64{}}
	models := map[string]*cli.Model{}
	// Interleave the connections' streams, as the daemon sees them.
	var seq []request
	for i := 0; i < len(w.streams[0]); i++ {
		for _, s := range w.streams {
			if i < len(s) {
				seq = append(seq, s[i])
			}
		}
	}
	for _, r := range seq {
		if models[r.job.App] != nil {
			continue
		}
		for i := 0; i < 5; i++ {
			start := time.Now()
			m, err := cli.LoadModel(r.job.App)
			if err != nil {
				return nil, nil, err
			}
			st.loadMs = append(st.loadMs, ms(time.Since(start)))
			models[r.job.App] = m
		}
	}

	// Warm state, as the daemon has it after warm-up: an in-process
	// server for the handler timings, and a compiled pipeline with a warm
	// run state for every simulated key.
	srv := serve.NewServer(serve.Options{CacheBudget: w.budgetMB << 20})
	for _, rs := range w.warmup {
		for _, r := range rs {
			st.attempted++
			status, body := serveOnce(srv, r)
			if _, err := ref.check(r, status, body); err != nil {
				return nil, nil, fmt.Errorf("traced warm-up: %w", err)
			}
		}
	}
	pipes := map[string]*pipeline{}
	events := map[int]map[string][]plan.Time{}
	for _, r := range seq {
		if r.kind != kindSimulate || pipes[r.compileKey()] != nil {
			continue
		}
		p, err := compilePipeline(models[r.job.App], r)
		if err != nil {
			return nil, nil, err
		}
		p.inputs = p.model.Inputs(r.job.Frames)
		p.edges = len(p.tg.Edges())
		pipes[r.compileKey()] = p
	}
	for _, r := range seq {
		if r.set < 0 || events[r.set] != nil {
			continue
		}
		ev := map[string][]plan.Time{}
		for proc, times := range r.job.Events {
			for _, s := range times {
				v, err := rational.Parse(s)
				if err != nil {
					return nil, nil, err
				}
				ev[proc] = append(ev[proc], v)
			}
		}
		events[r.set] = ev
	}

	tr := &tracer{t0: time.Now()}
	deadline := tr.t0.Add(d)
	var last *pipeline // the pipeline the previous /compile built, for lastKey
	var lastKey string
	for i := 0; time.Now().Before(deadline); i++ {
		r := seq[i%len(seq)]
		m := models[r.job.App]
		var layers time.Duration
		var err error
		var status int
		var body []byte
		var handler time.Duration
		traced := func() {
			root := tr.begin("request."+r.kind.String(), -1, i)
			timed := func(name string, fn func()) {
				dur := tr.child(name, root, i, fn)
				layers += dur
				st.spanMs[name] = append(st.spanMs[name], ms(dur))
			}
			switch r.kind {
			case kindSimulate:
				p := pipes[r.compileKey()]
				cfg := plan.Config{Frames: r.job.Frames, SporadicEvents: events[r.set], Inputs: p.inputs}
				var rep *plan.Report
				timed("plan.run", func() { rep, err = p.rs.Run(cfg) })
				if err == nil {
					st.entries = append(st.entries, float64(len(rep.Entries)))
					st.skipped = append(st.skipped, float64(len(rep.Skipped)))
					st.jobs = append(st.jobs, float64(len(p.tg.Jobs)))
					st.edges = append(st.edges, float64(p.edges))
				}
			case kindCompile:
				p := &pipeline{model: m}
				var s *sched.Schedule
				var h sched.Heuristic
				if h, err = cli.ParseHeuristic(r.job.Heuristic); err == nil {
					timed("taskgraph.derive", func() { p.tg, err = taskgraph.DeriveOpts(m.Net, taskgraph.Options{}) })
				}
				if err == nil {
					timed("sched.schedule", func() { s, err = sched.ListSchedule(p.tg, r.job.M, h) })
				}
				if err == nil {
					timed("sched.validate", func() { _ = s.Validate() })
					timed("plan.compile", func() { p.plan, err = plan.Compile(s) })
				}
				if err == nil {
					st.jobs = append(st.jobs, float64(len(p.tg.Jobs)))
					st.edges = append(st.edges, float64(len(p.tg.Edges())))
					last, lastKey = p, r.compileKey()
				}
			case kindAnalyze:
				if last == nil || lastKey != r.compileKey() {
					err = fmt.Errorf("/analyze %s does not follow its /compile", r.compileKey())
					break
				}
				timed("lint.run", func() { _ = lint.Run(m.Net, lint.Options{Processors: r.job.M}) })
				if len(last.tg.Jobs) <= maxAnalyzeJobs {
					timed("feas.analyze", func() { _, err = feas.Analyze(last.tg, r.job.M, feas.Options{}) })
					var v hb.Verdict
					timed("hb.verify", func() { v = hb.Verify(last.plan) })
					st.pairs = append(st.pairs, float64(v.Pairs))
				}
			}
			tr.end(root)
		}
		serveIt := func() {
			hid := tr.begin("serve.handler", -1, i)
			status, body = serveOnce(srv, r)
			handler = tr.end(hid)
		}
		// Alternate which goes first, so neither always runs on the
		// allocator and caches the other warmed.
		if i%2 == 0 {
			traced()
			serveIt()
		} else {
			serveIt()
			traced()
		}
		st.handler[r.kind] = append(st.handler[r.kind], us(handler))
		if r.kind == w.primary {
			st.selfUs = append(st.selfUs, us(handler-layers))
		}
		st.attempted++
		if err == nil {
			var cached bool
			if cached, err = ref.check(r, status, body); err == nil && cached != w.wantCached(r.kind) {
				err = fmt.Errorf("%s %s: in-process cached=%v", r.kind, r.compileKey(), cached)
			}
		}
		if err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced request failed:", err)
		}
		st.requests++
	}
	st.elapsed = time.Since(tr.t0)

	// Heap allocations of a warm replay, outside the timed loop: reading
	// the allocator's counters stops the world.
	if r := seq[0]; r.kind == kindSimulate {
		p := pipes[r.compileKey()]
		cfg := plan.Config{Frames: r.job.Frames, SporadicEvents: events[r.set], Inputs: p.inputs}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			if _, err := p.rs.Run(cfg); err != nil {
				return nil, nil, err
			}
		}
		runtime.ReadMemStats(&after)
		st.runAllocs = float64(after.Mallocs-before.Mallocs) / runs
	}
	return st, tr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
