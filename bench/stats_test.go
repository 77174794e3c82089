package main

import (
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Microsecond // descending: percentile must sort
		}
		return out
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := percentile(samples(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990*time.Microsecond {
		t.Errorf("p99 of 1..1000 us = %v, want 990us", got)
	}
	if beyond(1000, 0.99) != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", beyond(1000, 0.99))
	}
	if got, err := percentile(samples(21), 0.5); err != nil || got != 11*time.Microsecond {
		t.Errorf("p50 of 1..21 us = %v, %v; want 11us", got, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
