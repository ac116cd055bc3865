package main

import (
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 989: samples 990..999 lie beyond
		{999, 0.99, false}, // rank 989: only 9 beyond
		{100, 0.9, true},
		{99, 0.9, false},
		{40, 0.75, true},
		{39, 0.75, false},
		{1, 0.5, true},
		{0, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var o []obs
	for i := 100; i >= 1; i-- {
		o = append(o, obs{lat: time.Duration(i) * time.Millisecond})
	}
	s := latencies(o)
	if got, ok := s.quantileMs(0.5); !ok || got != 50 {
		t.Errorf("p50 = %v, %v; want 50 ms", got, ok)
	}
	if got, ok := s.quantileMs(0.9); !ok || got != 90 {
		t.Errorf("p90 = %v, %v; want 90 ms", got, ok)
	}
	if _, ok := s.quantileMs(0.99); ok {
		t.Error("p99 of 100 samples reported; only 1 lies beyond it")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBlockQuantileIgnoresABurst(t *testing.T) {
	// 3000 requests at 1 ms, in which requests 1000..1999 include a burst
	// of 50 at 100 ms: only the middle block's p99 sees it.
	var o []obs
	for i := 0; i < 3000; i++ {
		lat := time.Millisecond
		if i >= 1000 && i < 1050 {
			lat = 100 * time.Millisecond
		}
		o = append(o, obs{at: time.Duration(i) * time.Millisecond, lat: lat})
	}
	if got := blockSize(0.99, 1); got != 1000 {
		t.Fatalf("blockSize(0.99, 1) = %d, want 1000", got)
	}
	if got := blockSize(0.9, 16); got != 112 {
		t.Fatalf("blockSize(0.9, 16) = %d, want 112", got)
	}
	if got := len(inOrder(o[:2999], 1000)); got != 2000 {
		t.Fatalf("inOrder kept %d of 2999 observations, want 2000", got)
	}
	got, blocks, ok := blockQuantileMs(inOrder(o, 1), 0.99, 1000)
	if !ok || blocks != 3 || got != 1 {
		t.Errorf("blockQuantileMs = %v over %d blocks (%v), want 1 ms over 3", got, blocks, ok)
	}
	if _, _, ok := blockQuantileMs(o[:999], 0.99, 1000); ok {
		t.Error("999 requests reported a p99 block")
	}
}

func TestSliceRate(t *testing.T) {
	// 10 s at 200 req/s, but no completions in the fourth second.
	var done []time.Duration
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		if at >= 3*time.Second && at < 4*time.Second {
			continue
		}
		done = append(done, at)
	}
	if got := sliceRate(done, 10*time.Second, nil); got != 200 {
		t.Errorf("sliceRate = %v, want 200", got)
	}
	// Too few requests for three slices: the plain rate.
	if got := sliceRate(done[:20], 10*time.Second, nil); got != 2 {
		t.Errorf("sliceRate = %v, want 2", got)
	}
}
