package main

import (
	"fmt"
	"math/rand"
)

// sporadicProc describes one sporadic configuration process of the FMS
// model: at most burst events in any window of periodMs, served by
// server jobs whose windows are serverMs long. The numbers are copied
// from the model (internal/apps/fms) and its derived task graph, so the
// generator does not run the code it feeds; TestSporadicTableMatchesModel
// keeps the copy honest.
type sporadicProc struct {
	name     string
	burst    int
	periodMs int64
	serverMs int64
}

var fmsSporadics = []sporadicProc{
	{"AnemoConfig", 2, 200, 200},
	{"GPSConfig", 2, 200, 200},
	{"IRSConfig", 2, 200, 200},
	{"DopplerConfig", 2, 200, 200},
	{"BCPConfig", 2, 200, 200},
	{"MagnDeclinConfig", 5, 1600, 400},
	{"PerformanceConfig", 5, 1000, 1000},
}

// fmsHyperperiodMs is the FMS frame length (its hyperperiod).
const fmsHyperperiodMs = 10_000

// eventSet is one /simulate "events" object: process name to event time
// stamps in seconds, as exact decimal strings.
type eventSet map[string][]string

// genEventSet draws one sporadic event set for a run of the given frame
// count. Each process gets events at a density (share of its maximum
// rate) drawn from [0.1, 0.5]. Every set respects each process's burst
// and period, and no event falls in the final server window of the last
// frame, where the daemon would reject it (its window ends after the run).
func genEventSet(rng *rand.Rand, frames int) eventSet {
	horizon := int64(frames) * fmsHyperperiodMs
	set := make(eventSet, len(fmsSporadics))
	for _, p := range fmsSporadics {
		density := 0.1 + 0.4*rng.Float64()
		meanGap := float64(p.periodMs) / (float64(p.burst) * density)
		limit := horizon - p.serverMs // exclusive
		var times []int64
		t := int64(rng.Float64() * meanGap)
		for {
			// Burst rule: the event burst places back must be a full
			// period earlier, so no half-open window of periodMs holds
			// more than burst events.
			if n := len(times); n >= p.burst && t-times[n-p.burst] < p.periodMs {
				t = times[n-p.burst] + p.periodMs
			}
			if t >= limit {
				break
			}
			times = append(times, t)
			t += 1 + int64(rng.ExpFloat64()*meanGap)
		}
		strs := make([]string, len(times))
		for i, ms := range times {
			strs[i] = fmt.Sprintf("%d.%03d", ms/1000, ms%1000)
		}
		set[p.name] = strs
	}
	return set
}

// eventCount is the total number of events in a set.
func (s eventSet) eventCount() int {
	n := 0
	for _, ts := range s {
		n += len(ts)
	}
	return n
}
