package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses when fewer than minTail samples lie
// beyond the rank: a p99 needs at least 1000 samples.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 || beyond(n, q) < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, beyond(n, q), n)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[max(rank(n, q)-1, 0)], nil
}

// rank is the nearest-rank position (1-based) of the q-quantile of n
// samples.
func rank(n int, q float64) int { return int(math.Ceil(q * float64(n))) }

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one timed observation of the window: when it completed, in
// nanoseconds since the window opened, and how long it took.
type sample struct {
	at int64
	d  time.Duration
}

// maxChunks bounds how many slices of the window a statistic is taken
// over.
const maxChunks = 10

// chunkedPercentile splits the samples, in completion order, into equal
// consecutive chunks, each large enough for the q-quantile to have
// minTail samples beyond it (at most maxChunks), and returns the median
// of the chunks' q-quantiles with the chunk count. A stall that hits one
// slice of the window moves one chunk, not the reported figure.
func chunkedPercentile(samples []sample, q float64) (time.Duration, int, error) {
	n := len(samples)
	need := 1
	for beyond(need, q) < minTail {
		need++
	}
	k := min(maxChunks, n/need)
	if k < 1 {
		return 0, 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, need, n)
	}
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	vals := make([]float64, k)
	ds := make([]time.Duration, 0, n/k+1)
	for i := range k {
		ds = ds[:0]
		for _, s := range sorted[i*n/k : (i+1)*n/k] {
			ds = append(ds, s.d)
		}
		p, err := percentile(ds, q)
		if err != nil {
			return 0, 0, err
		}
		vals[i] = float64(p)
	}
	return time.Duration(median(vals)), k, nil
}

// chunkedRate splits the window into maxChunks equal slices and returns
// the median over slices of the samples completed per second.
func chunkedRate(samples []sample, window time.Duration) float64 {
	counts := make([]int, maxChunks)
	for _, s := range samples {
		i := int(s.at * maxChunks / int64(window))
		counts[min(max(i, 0), maxChunks-1)]++
	}
	rates := make([]float64, maxChunks)
	for i, c := range counts {
		rates[i] = float64(c) / (window.Seconds() / maxChunks)
	}
	return median(rates)
}
