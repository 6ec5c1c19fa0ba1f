package main

import (
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosoft/internal/obs"
)

// samples is a goroutine-safe list of latencies, each stamped with the
// start of the action it measures so it can be assigned to a sub-window.
type samples struct {
	mu sync.Mutex
	s  []sample
}

type sample struct {
	at int64 // start of the action, UnixNano
	d  time.Duration
}

func (s *samples) add(at time.Time, d time.Duration) {
	s.mu.Lock()
	s.s = append(s.s, sample{at.UnixNano(), d})
	s.mu.Unlock()
}

// bytes is the heap the samples hold, which the benchmark subtracts from
// the program's live heap.
func (s *samples) bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(cap(s.s)) * 16
}

// sorted returns the latencies of the actions started in [lo, hi), sorted;
// zero times leave that side open.
func (s *samples) sorted(lo, hi time.Time) []time.Duration {
	s.mu.Lock()
	var out []time.Duration
	for _, x := range s.s {
		if (!lo.IsZero() && x.at < lo.UnixNano()) || (!hi.IsZero() && x.at >= hi.UnixNano()) {
			continue
		}
		out = append(out, x.d)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank quantile of sorted durations (0 when empty).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histWindow captures a registry histogram's buckets at the start of a
// measured window so quantiles can be taken over the window alone.
type histWindow struct {
	h      *obs.Histogram
	before [obs.NumHistBuckets]uint64
}

func newHistWindow(reg *obs.Registry, name string) *histWindow {
	w := &histWindow{h: reg.Histogram(name)}
	b, _, _ := w.h.Buckets()
	copy(w.before[:], b[:])
	return w
}

// quantile interpolates the q-quantile of the observations made since the
// window opened, within the power-of-two bucket that holds it.
func (w *histWindow) quantile(q float64) float64 {
	after, _, _ := w.h.Buckets()
	var delta []uint64
	var total uint64
	for i := range after {
		d := after[i] - w.before[i]
		delta = append(delta, d)
		total += d
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, d := range delta {
		if d == 0 {
			continue
		}
		if seen+float64(d) >= rank {
			// Bucket i holds [2^(i-1), 2^i); bucket 0 holds zeros.
			if i == 0 {
				return 0
			}
			lo := float64(obs.BucketLE(i-1) + 1)
			hi := float64(obs.BucketLE(i) + 1)
			return lo + (hi-lo)*(rank-seen)/float64(d)
		}
		seen += float64(d)
	}
	return float64(obs.BucketLE(len(delta) - 1))
}

// hostClock is a reading of the machine's CPU time counters, in clock
// ticks: the time the hypervisor ran other machines while this one's CPUs
// wanted to run (steal), and all CPU time. Both are 0 where /proc/stat
// cannot be read.
type hostClock struct{ steal, total float64 }

func readHostClock() hostClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostClock{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostClock{}
	}
	var c hostClock
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return hostClock{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// quietSlices takes the host clock read at every slice boundary and returns
// the 1-based numbers of the slices in the half (rounded up) in which the
// hypervisor stole the smallest share of CPU time, in time order, and every
// slice's stolen share. On a virtual machine sharing its host, stolen time
// stretches every latency and cuts throughput whatever the program does.
// Without readings every slice counts and every stolen share is 0.
func quietSlices(clocks []hostClock) (quiet []int, stolen []float64) {
	n := len(clocks) - 1
	read := true
	for i := 1; i <= n; i++ {
		d := clocks[i].total - clocks[i-1].total
		read = read && d > 0 && clocks[i-1].total > 0
		stolen = append(stolen, ratio(clocks[i].steal-clocks[i-1].steal, d))
		quiet = append(quiet, i)
	}
	if !read {
		return quiet, make([]float64, n)
	}
	sort.SliceStable(quiet, func(a, b int) bool { return stolen[quiet[a]-1] < stolen[quiet[b]-1] })
	quiet = quiet[:(n+1)/2]
	sort.Ints(quiet)
	return quiet, stolen
}

// atLeastSteal estimates a per-slice figure y at the smallest stolen share
// seen in the run (0 on a calm host): it fits the Theil-Sen line through the
// points (stolen[i], y[i]) — the median of the slopes between every two
// slices with different stolen shares — and reads it at that share, as the
// median of y[i] - slope*(stolen[i] - least). Stolen time moves a run's
// figures as much as a change to the program does, and a busy host steals
// from most slices of a run; the line uses them all, and being built from
// medians it ignores slices that a burst of outside load puts off it. It is
// not read below the least share seen, where a busy host's figures say
// nothing about the line's shape. With no spread in the stolen shares (or
// no readings) the slope is 0 and the estimate is the median of y.
func atLeastSteal(stolen, y []float64) float64 {
	var slopes []float64
	for i := range y {
		for j := i + 1; j < len(y); j++ {
			if dx := stolen[j] - stolen[i]; dx != 0 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	b, least := medianF(slopes), slices.Min(stolen)
	at := make([]float64, len(y))
	for i := range y {
		at[i] = y[i] - b*(stolen[i]-least)
	}
	return medianF(at)
}
