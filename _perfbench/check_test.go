package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestCheckRejectsTamperedResponses builds correct responses from the
// reference data, then changes one field at a time.
func TestCheckRejectsTamperedResponses(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	pool := replayPool()
	sim := replayRequest(pool, 3)
	comp := newRequest(kindCompile, jobRequest{App: "fms", M: 5, Heuristic: "edf"}, -1)
	ana := newRequest(kindAnalyze, comp.job, -1)

	simBody := func(edit func(map[string]any)) []byte {
		want := ref.Simulate[sim.simulateKey()]
		m := map[string]any{
			"app": sim.job.App, "m": sim.job.M, "heuristic": sim.job.Heuristic, "frames": sim.job.Frames,
			"cached": true, "feasible": ref.Compile[sim.compileKey()].Feasible,
			"entries": want.Entries, "misses": want.Misses, "skippedServerJobs": want.Skipped,
			"makespan": want.Makespan, "maxLateness": want.MaxLateness, "outputSampleCounts": want.Outputs,
		}
		edit(m)
		b, _ := json.Marshal(m)
		return b
	}
	compBody := func(edit func(map[string]any)) []byte {
		want := ref.Compile[comp.compileKey()]
		m := map[string]any{
			"app": "fms", "m": 5, "heuristic": "edf", "cached": false,
			"jobs": want.Jobs, "hyperperiod": want.Hyperperiod, "makespan": want.Makespan, "feasible": want.Feasible,
		}
		edit(m)
		b, _ := json.Marshal(m)
		return b
	}
	anaBody := func(edit func(map[string]any)) []byte {
		m := map[string]any{
			"app": "fms", "m": 5, "heuristic": "edf", "cached": true, "feasible": ref.Compile[comp.compileKey()].Feasible,
			"lint":           map[string]any{"errors": 0},
			"schedulability": map[string]any{"verdict": "feasible"},
			"determinism":    map[string]any{"raceFree": true},
		}
		edit(m)
		b, _ := json.Marshal(m)
		return b
	}
	keep := func(map[string]any) {}

	for _, c := range []struct {
		name string
		r    request
		body []byte
	}{
		{"simulate", sim, simBody(keep)},
		{"compile", comp, compBody(keep)},
		{"analyze", ana, anaBody(keep)},
	} {
		if _, err := ref.check(c.r, http.StatusOK, c.body); err != nil {
			t.Errorf("%s: untampered response rejected: %v", c.name, err)
		}
	}

	for _, c := range []struct {
		name string
		r    request
		body []byte
	}{
		{"simulate entries", sim, simBody(func(m map[string]any) { m["entries"] = m["entries"].(int) + 1 })},
		{"simulate makespan", sim, simBody(func(m map[string]any) { m["makespan"] = "1/3" })},
		{"simulate skipped", sim, simBody(func(m map[string]any) { m["skippedServerJobs"] = 0 })},
		{"simulate outputs", sim, simBody(func(m map[string]any) { m["outputSampleCounts"] = map[string]int{} })},
		{"simulate frames", sim, simBody(func(m map[string]any) { m["frames"] = 7 })},
		{"simulate other app", sim, simBody(func(m map[string]any) { m["app"] = "fft" })},
		{"compile jobs", comp, compBody(func(m map[string]any) { m["jobs"] = 811 })},
		{"compile feasible", comp, compBody(func(m map[string]any) { m["feasible"] = !m["feasible"].(bool) })},
		{"compile other M", comp, compBody(func(m map[string]any) { m["m"] = 6 })},
		{"analyze lint", ana, anaBody(func(m map[string]any) { m["lint"] = map[string]any{"errors": 1} })},
		{"analyze race", ana, anaBody(func(m map[string]any) { m["determinism"] = map[string]any{"raceFree": false} })},
		{"analyze skipped", ana, anaBody(func(m map[string]any) {
			m["determinism"] = map[string]any{"raceFree": true, "skipped": "gate"}
		})},
		{"not JSON", sim, []byte("{")},
	} {
		if _, err := ref.check(c.r, http.StatusOK, c.body); err == nil {
			t.Errorf("%s: tampered response accepted", c.name)
		}
	}
	if _, err := ref.check(sim, http.StatusUnprocessableEntity, []byte(`{"error":"x"}`)); err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("error status accepted or not reported: %v", err)
	}
}
