package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared virtual machines whose vCPUs the
// hypervisor now and then gives to other tenants ("steal" time in
// /proc/stat). Such stretches slow every request in flight for reasons
// outside the program, so the window's metrics are taken over its calm
// stretches: those in which the host stole at most calmSteal of the CPU
// time, or, when those are less than half, the calmer half.
const calmSteal = 0.02

// stealSampleEvery is the sampling period of the host's steal counter.
const stealSampleEvery = 50 * time.Millisecond

type stealSample struct {
	at           time.Duration // since the window began
	steal, total uint64        // cumulative /proc/stat ticks, all CPUs
}

// readSteal returns the cumulative steal and total ticks of all CPUs.
func readSteal() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealSampler records the steal counter every stealSampleEvery until
// finish is called.
type stealSampler struct {
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

func startStealSampler(start time.Time) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealSampleEvery)
		defer t.Stop()
		sample := func() {
			if steal, total, ok := readSteal(); ok {
				s.samples = append(s.samples, stealSample{at: time.Since(start), steal: steal, total: total})
			}
		}
		for {
			sample()
			select {
			case <-s.stop:
				sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, takes a last sample and returns them all.
func (s *stealSampler) finish() []stealSample {
	close(s.stop)
	<-s.done
	return s.samples
}

// stealShare is the share of CPU time stolen over the sampled interval
// that covers [from, to]; 0 when the counter could not be read.
func stealShare(ss []stealSample, from, to time.Duration) float64 {
	if len(ss) < 2 {
		return 0
	}
	i := sort.Search(len(ss), func(i int) bool { return ss[i].at > from }) - 1
	j := sort.Search(len(ss), func(j int) bool { return ss[j].at >= to })
	if i < 0 {
		i = 0
	}
	if j >= len(ss) {
		j = len(ss) - 1
	}
	if j <= i {
		return 0
	}
	total := ss[j].total - ss[i].total
	if total == 0 {
		return 0
	}
	return float64(ss[j].steal-ss[i].steal) / float64(total)
}

// calmest reports which of the stretches with the given steal shares to
// keep: those at or below calmSteal, or, when those are fewer than half,
// the half with the lowest shares.
func calmest(shares []float64) []bool {
	keep := make([]bool, len(shares))
	n := 0
	for i, s := range shares {
		if s <= calmSteal {
			keep[i] = true
			n++
		}
	}
	if half := (len(shares) + 1) / 2; n < half {
		idx := make([]int, len(shares))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
		for _, i := range idx[:half] {
			keep[i] = true
		}
	}
	return keep
}

// calmObs keeps the observations of the window's calm stretches, in
// completion order.
func calmObs(kindObs []obs, ss []stealSample) []obs {
	sorted := inOrder(kindObs, 1)
	shares := make([]float64, len(sorted))
	for i, o := range sorted {
		shares[i] = stealShare(ss, o.at-o.lat, o.at)
	}
	var out []obs
	for i, k := range calmest(shares) {
		if k {
			out = append(out, sorted[i])
		}
	}
	return out
}
