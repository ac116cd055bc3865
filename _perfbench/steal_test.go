package main

import (
	"testing"
	"time"
)

// samples of a 10 s window, 100 ticks per second, with 50% steal in
// seconds 4 and 5 and none elsewhere.
func burstSamples() []stealSample {
	var ss []stealSample
	var steal, total uint64
	for s := 0; s <= 10; s++ {
		ss = append(ss, stealSample{at: time.Duration(s) * time.Second, steal: steal, total: total})
		if s == 4 || s == 5 {
			steal += 50
		}
		total += 100
	}
	return ss
}

func TestStealShare(t *testing.T) {
	ss := burstSamples()
	if got := stealShare(ss, 0, 10*time.Second); got != 0.1 {
		t.Errorf("window share = %v, want 0.1", got)
	}
	if got := stealShare(ss, 4500*time.Millisecond, 4600*time.Millisecond); got != 0.5 {
		t.Errorf("share inside the burst = %v, want 0.5", got)
	}
	if got := stealShare(ss, 7*time.Second, 8*time.Second); got != 0 {
		t.Errorf("share after the burst = %v, want 0", got)
	}
	if got := stealShare(nil, 0, time.Second); got != 0 {
		t.Errorf("share without samples = %v, want 0", got)
	}
}

func TestCalmObsDropsTheBurst(t *testing.T) {
	ss := burstSamples()
	var o []obs
	for ms := 50; ms < 10000; ms += 100 {
		o = append(o, obs{at: time.Duration(ms) * time.Millisecond, lat: 10 * time.Millisecond})
	}
	calm := calmObs(o, ss)
	if len(calm) != 80 {
		t.Fatalf("kept %d of 100 observations, want the 80 outside the burst", len(calm))
	}
	for _, c := range calm {
		if c.at >= 4*time.Second && c.at < 6*time.Second {
			t.Errorf("kept an observation at %v, inside the burst", c.at)
		}
	}
}

func TestCalmestKeepsAtLeastHalf(t *testing.T) {
	keep := calmest([]float64{0.3, 0.1, 0.2, 0.5, 0.01})
	want := []bool{false, true, true, false, true}
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("calmest = %v, want %v", keep, want)
		}
	}
}
