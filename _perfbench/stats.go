package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer and the percentile rests on one or two requests.
const minBeyond = 10

// obs is one successful request: when it completed, measured from the
// start of its closed loop, and its client-side latency.
type obs struct{ at, lat time.Duration }

// samples is one request kind's client-side latencies.
type samples []time.Duration

func latencies(kindObs []obs) samples {
	out := make(samples, len(kindObs))
	for i, o := range kindObs {
		out[i] = o.lat
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the q quantile (the median always qualifies when n > 0).
func supports(n int, q float64) bool {
	if n == 0 {
		return false
	}
	return q <= 0.5 || n-1-rank(n, q) >= minBeyond
}

// quantileMs returns the nearest-rank q quantile of sorted samples in
// milliseconds, and false when the sample count does not support it.
func (s samples) quantileMs(q float64) (float64, bool) {
	if !supports(len(s), q) {
		return 0, false
	}
	return float64(s[rank(len(s), q)]) / float64(time.Millisecond), true
}

// blockSize is the smallest multiple of cycle that supports quantile q:
// a block then holds whole cycles of the workload's request sequence.
func blockSize(q float64, cycle int) int {
	n := cycle
	for !supports(n, q) {
		n += cycle
	}
	return n
}

// inOrder returns the observations in completion order, cut to a whole
// number of cycles so that every run weighs the workload's keys alike.
func inOrder(kindObs []obs, cycle int) []obs {
	sorted := append([]obs(nil), kindObs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	return sorted[:len(sorted)/cycle*cycle]
}

// blockQuantileMs splits observations, in order, into consecutive blocks
// of size requests (dropping the remainder) and returns the median of the
// blocks' q quantiles and the block count. A burst of interference from
// outside the benchmark (other tenants of the host) then moves only the
// blocks it overlaps, not the reported value.
func blockQuantileMs(ordered []obs, q float64, size int) (float64, int, bool) {
	nb := len(ordered) / size
	if nb == 0 {
		return 0, 0, false
	}
	vals := make([]float64, nb)
	for b := range vals {
		vals[b], _ = latencies(ordered[b*size : (b+1)*size]).quantileMs(q)
	}
	return median(vals), nb, true
}

// Rate slices hold at least minSliceRequests requests on average and last
// at least minSlice.
const (
	minSliceRequests = 100
	minSlice         = time.Second
	minSlices        = 3
)

// sliceRate returns requests per second as the median over the calm ones
// (see calmSteal) of equal time slices of the window, for the same reason
// as blockQuantileMs; with fewer than minSlices slices of
// minSliceRequests it is the plain rate.
func sliceRate(done []time.Duration, elapsed time.Duration, ss []stealSample) float64 {
	rate := float64(len(done)) / elapsed.Seconds()
	slice := time.Duration(float64(minSliceRequests) / rate * float64(time.Second))
	if slice < minSlice {
		slice = minSlice
	}
	n := int(elapsed / slice)
	if n < minSlices {
		return rate
	}
	counts := make([]float64, n)
	for _, at := range done {
		if i := int(at / slice); i < n {
			counts[i]++
		}
	}
	shares := make([]float64, n)
	for i := range counts {
		counts[i] /= slice.Seconds()
		shares[i] = stealShare(ss, time.Duration(i)*slice, time.Duration(i+1)*slice)
	}
	var calm []float64
	for i, k := range calmest(shares) {
		if k {
			calm = append(calm, counts[i])
		}
	}
	return median(calm)
}

// median returns the median of xs (the mean of the middle two for even
// counts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
