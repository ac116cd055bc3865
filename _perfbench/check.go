package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
)

// referenceJSON holds the expected answers. They were computed once by the
// repository's reference oracles (sched.ListScheduleReference,
// Schedule.ValidateReference and rt.RunReference; see reference_test.go),
// so the check neither runs nor links the code it checks, and keeps
// building if those oracles move into a test-only package.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference is the parsed expected-answer file.
type reference struct {
	// PoolDigest fingerprints the replay event-set pool the simulate
	// answers were computed for.
	PoolDigest string                    `json:"poolDigest"`
	Compile    map[string]compileAnswer  `json:"compile"`
	Simulate   map[string]simulateAnswer `json:"simulate"`
}

type compileAnswer struct {
	Jobs        int    `json:"jobs"`
	Hyperperiod string `json:"hyperperiod"`
	Makespan    string `json:"makespan"`
	Feasible    bool   `json:"feasible"`
}

type simulateAnswer struct {
	Entries     int            `json:"entries"`
	Misses      int            `json:"misses"`
	Skipped     int            `json:"skipped"`
	Makespan    string         `json:"makespan"`
	MaxLateness string         `json:"maxLateness"`
	Outputs     map[string]int `json:"outputs"`
}

// The daemon's response bodies, reduced to the checked fields.
type echo struct {
	App       string `json:"app"`
	M         int    `json:"m"`
	Heuristic string `json:"heuristic"`
	Cached    bool   `json:"cached"`
	Feasible  bool   `json:"feasible"`
}

type compileResponse struct {
	echo
	Jobs        int    `json:"jobs"`
	Hyperperiod string `json:"hyperperiod"`
	Makespan    string `json:"makespan"`
}

type simulateResponse struct {
	echo
	Frames      int            `json:"frames"`
	Entries     int            `json:"entries"`
	Misses      int            `json:"misses"`
	Skipped     int            `json:"skippedServerJobs"`
	Makespan    string         `json:"makespan"`
	MaxLateness string         `json:"maxLateness"`
	Outputs     map[string]int `json:"outputSampleCounts"`
}

type analyzeResponse struct {
	echo
	Lint struct {
		Errors int `json:"errors"`
	} `json:"lint"`
	Schedulability struct {
		Verdict string `json:"verdict"`
		Skipped string `json:"skipped"`
	} `json:"schedulability"`
	Determinism struct {
		RaceFree bool   `json:"raceFree"`
		Skipped  string `json:"skipped"`
	} `json:"determinism"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference data: %w", err)
	}
	if got := poolDigest(replayPool()); got != ref.PoolDigest {
		return nil, fmt.Errorf("replay event pool digest %s, reference data is for %s: regenerate it (see reference_test.go)", got, ref.PoolDigest)
	}
	return &ref, nil
}

// poolDigest fingerprints the replay pool's encoded request bodies.
func poolDigest(pool []eventSet) string {
	h := sha256.New()
	for i := range pool {
		h.Write(replayRequest(pool, i).body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies one response against the reference answer for its
// request and returns the response's cache outcome.
func (ref *reference) check(r request, status int, body []byte) (cached bool, err error) {
	if status != http.StatusOK {
		return false, fmt.Errorf("%s %s: status %d: %.200s", r.kind, r.compileKey(), status, body)
	}
	comp, ok := ref.Compile[r.compileKey()]
	if !ok {
		return false, fmt.Errorf("no reference answer for %s", r.compileKey())
	}
	var e *echo
	switch r.kind {
	case kindCompile:
		var resp compileResponse
		e, err = &resp.echo, json.Unmarshal(body, &resp)
		if err == nil {
			got := compileAnswer{Jobs: resp.Jobs, Hyperperiod: resp.Hyperperiod, Makespan: resp.Makespan, Feasible: resp.Feasible}
			if got != comp {
				err = fmt.Errorf("answer %+v, reference %+v", got, comp)
			}
		}
	case kindSimulate:
		var resp simulateResponse
		e, err = &resp.echo, json.Unmarshal(body, &resp)
		if err == nil {
			want, ok := ref.Simulate[r.simulateKey()]
			got := simulateAnswer{Entries: resp.Entries, Misses: resp.Misses, Skipped: resp.Skipped,
				Makespan: resp.Makespan, MaxLateness: resp.MaxLateness, Outputs: resp.Outputs}
			switch {
			case !ok:
				err = fmt.Errorf("no reference answer for %s", r.simulateKey())
			case resp.Frames != r.job.Frames:
				err = fmt.Errorf("frames %d, sent %d", resp.Frames, r.job.Frames)
			case resp.Feasible != comp.Feasible:
				err = fmt.Errorf("feasible %v, reference %v", resp.Feasible, comp.Feasible)
			case !reflect.DeepEqual(got, want):
				err = fmt.Errorf("answer %+v, reference %+v", got, want)
			}
		}
	case kindAnalyze:
		// The FMS answer at every sweep key: lint-clean, race-free, and
		// every section actually run.
		var resp analyzeResponse
		e, err = &resp.echo, json.Unmarshal(body, &resp)
		switch {
		case err != nil:
		case resp.Lint.Errors != 0:
			err = fmt.Errorf("%d lint errors, want 0", resp.Lint.Errors)
		case !resp.Determinism.RaceFree || resp.Determinism.Skipped != "":
			err = fmt.Errorf("determinism raceFree=%v skipped=%q, want race-free", resp.Determinism.RaceFree, resp.Determinism.Skipped)
		case resp.Schedulability.Verdict == "" || resp.Schedulability.Skipped != "":
			err = fmt.Errorf("schedulability verdict %q skipped %q", resp.Schedulability.Verdict, resp.Schedulability.Skipped)
		case resp.Feasible != comp.Feasible:
			err = fmt.Errorf("feasible %v, reference %v", resp.Feasible, comp.Feasible)
		}
	}
	if err == nil && (e.App != r.job.App || e.M != r.job.M || e.Heuristic != r.job.Heuristic) {
		err = fmt.Errorf("answer is for %s|m%d|%s", e.App, e.M, e.Heuristic)
	}
	if err != nil {
		return false, fmt.Errorf("%s %s: %w", r.kind, r.compileKey(), err)
	}
	return e.Cached, nil
}
