package latency

import (
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip checks every value maps into a bucket whose bounds
// contain it, with relative width <= 1/subCount.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096,
		1_000_000, 123_456_789, 1 << 40, (1 << 62) + 12345}
	for _, v := range vals {
		i := bucketOf(v)
		upper := uint64(bucketUpper(i))
		if v > upper {
			t.Errorf("bucketOf(%d)=%d but bucketUpper=%d < value", v, i, upper)
		}
		if i > 0 {
			below := uint64(bucketUpper(i - 1))
			if v <= below {
				t.Errorf("bucketOf(%d)=%d but previous bucket upper %d >= value", v, i, below)
			}
		}
		if v >= subCount {
			// Relative error bound: bucket width / lower bound <= 1/subCount.
			lower := uint64(bucketUpper(i-1)) + 1
			width := upper - lower + 1
			if width*subCount > lower {
				t.Errorf("bucket %d for %d: width %d exceeds %d%% of lower bound %d",
					i, v, width, 100/subCount, lower)
			}
		}
	}
	// Indices are monotone and in range across the whole span.
	last := -1
	for e := 0; e < 63; e++ {
		v := uint64(1) << e
		i := bucketOf(v)
		if i <= last || i >= numBuckets {
			t.Fatalf("bucketOf(1<<%d) = %d, not monotone in [0,%d)", e, i, numBuckets)
		}
		last = i
	}
}

// TestQuantiles records a known distribution and checks the quantiles land
// within the bucketing's 12.5% relative error.
func TestQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 microseconds, uniform: p50 ≈ 500µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Total != 1000 {
		t.Fatalf("Total = %d, want 1000", s.Total)
	}
	check := func(q float64, want time.Duration) {
		got := s.Quantile(q)
		if got < want || float64(got) > float64(want)*1.13 {
			t.Errorf("Quantile(%v) = %v, want within [%v, %v]", q, got, want, time.Duration(float64(want)*1.13))
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.90, 900*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	if max := s.Max(); max < time.Millisecond || max > time.Duration(1.13*float64(time.Millisecond)) {
		t.Errorf("Max = %v, want ~1ms", max)
	}
	if mean := s.Mean(); mean != 500500*time.Nanosecond/1 {
		// Sum is exact: mean of 1..1000µs is 500.5µs exactly.
		if mean != 500500*time.Microsecond/1000 {
			t.Errorf("Mean = %v, want 500.5µs", mean)
		}
	}
	sum := s.Summarize()
	if sum.Count != 1000 || sum.P50NS == 0 || sum.P99NS < sum.P50NS || sum.MaxNS < sum.P99NS {
		t.Errorf("Summary not ordered: %+v", sum)
	}

	// The rank is ceil(q·Total): a fractional product rounds up, so nine
	// 1ms samples and one 1s sample put p99 (rank ⌈9.9⌉ = 10) on the 1s
	// one, while a product that is exact in decimal keeps its rank (q =
	// 0.07 over 100 samples is rank 7, the last 1ms sample).
	for _, tc := range []struct {
		fast, slow int // samples of 1ms, then of 1s
		q          float64
		want       time.Duration
	}{
		{fast: 9, slow: 1, q: 0.99, want: time.Second},
		{fast: 7, slow: 93, q: 0.07, want: time.Millisecond},
		{fast: 7, slow: 93, q: 0.08, want: time.Second},
	} {
		var h Histogram
		for i := 0; i < tc.fast; i++ {
			h.Record(time.Millisecond)
		}
		for i := 0; i < tc.slow; i++ {
			h.Record(time.Second)
		}
		s := h.Snapshot()
		if got := s.Quantile(tc.q); got < tc.want || float64(got) > float64(tc.want)*1.13 {
			t.Errorf("%d×1ms + %d×1s: Quantile(%v) = %v, want %v", tc.fast, tc.slow, tc.q, got, tc.want)
		}
	}
}

// TestEmptyAndNegative checks the zero histogram and negative durations.
func TestEmptyAndNegative(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty histogram must summarize to zeros")
	}
	h.Record(-time.Second) // clamps to 0
	if got := h.Snapshot().Max(); got != 0 {
		t.Errorf("negative duration recorded as %v, want 0", got)
	}
}

// TestConcurrentRecord hammers Record from many goroutines (run under
// -race) and checks no observation is lost.
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*1000+i) * time.Nanosecond)
				if i%1024 == 0 {
					_ = h.Snapshot() // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Total != goroutines*per {
		t.Errorf("Total = %d, want %d", s.Total, goroutines*per)
	}
}
