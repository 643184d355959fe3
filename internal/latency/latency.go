// Package latency is a lock-free HDR-style latency histogram: fixed
// power-of-two buckets refined by linear sub-buckets, atomic counts, and
// plain-value snapshots. One Histogram costs a few KB and Record is a single
// atomic add, so the server keeps one per (endpoint, phase) — end-to-end
// and queue-wait — and /stats summarizes them as p50/p90/p99 without ever
// locking a request path.
//
// Bucketing: values below 2^subBits nanoseconds get exact unit buckets;
// above that, each power-of-two range [2^e, 2^(e+1)) is split into
// 2^subBits equal sub-buckets, bounding the relative quantile error at
// 1/2^subBits (12.5% with subBits = 3) across the full int64 range — the
// scheme of HdrHistogram, sized for durations.
// Record runs on every request completion, so xkvet's hotpath analyzer
// keeps this file lock-free (atomics only: no mutexes, channels, sleeps
// or fmt).
//
//xk:hotpath
package latency

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is the sub-bucket resolution: 2^subBits linear sub-buckets
	// per power-of-two range, i.e. ≤ 12.5% relative error on quantiles.
	subBits  = 3
	subCount = 1 << subBits

	// numBuckets covers every non-negative int64 nanosecond value:
	// subCount exact unit buckets, then (63 - subBits) refined ranges.
	numBuckets = (64 - subBits) * subCount
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // 2^exp <= v < 2^(exp+1), exp >= subBits
	return (exp-subBits+1)*subCount + int(v>>(exp-subBits)) - subCount
}

// bucketUpper returns the largest value mapping to bucket i, the
// conservative (never under-reporting) representative quantiles use.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := i/subCount + subBits - 1
	sub := i % subCount
	width := int64(1) << (exp - subBits)
	low := int64(subCount+sub) << (exp - subBits)
	return low + width - 1
}

// Histogram records durations. The zero value is ready to use; all methods
// are safe for concurrent use. Counts only grow (there is no reset), so
// concurrent snapshots are monotone.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanoseconds, for the mean
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the current counts. The copy is not atomic across
// buckets: values recorded concurrently may or may not be included, which
// is the usual monotone-lower-bound contract for live stats.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	return s
}

// Snapshot is one histogram's counts, detached from the atomics: plain
// values, so it can be quantiled and marshalled freely.
type Snapshot struct {
	Counts [numBuckets]uint64
	Total  uint64
	Sum    int64
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket holding the ceil(q*Total)-th observation. Zero when empty.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// The ceil is taken a hair below the product, so a product that is an
	// integer in decimal but lands just above it in binary (0.07 × 100 is
	// 7.000000000000001) keeps its exact rank.
	p := q * float64(s.Total)
	rank := uint64(math.Ceil(p - p*1e-12))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range s.Counts {
		seen += s.Counts[i]
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}

// Max returns the upper bound of the highest non-empty bucket.
func (s *Snapshot) Max() time.Duration {
	for i := numBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return time.Duration(bucketUpper(i))
		}
	}
	return 0
}

// Mean returns the exact arithmetic mean (Sum is exact, not bucketed).
func (s *Snapshot) Mean() time.Duration {
	if s.Total == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Total))
}

// Summary is the JSON shape /stats exposes per histogram: count, mean and
// the SLO quantiles, in nanoseconds.
type Summary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Summarize reduces the snapshot to its Summary.
func (s *Snapshot) Summarize() Summary {
	return Summary{
		Count:  int64(s.Total),
		MeanNS: s.Mean().Nanoseconds(),
		P50NS:  s.Quantile(0.50).Nanoseconds(),
		P90NS:  s.Quantile(0.90).Nanoseconds(),
		P99NS:  s.Quantile(0.99).Nanoseconds(),
		MaxNS:  s.Max().Nanoseconds(),
	}
}

// Summary is shorthand for Snapshot().Summarize().
func (h *Histogram) Summary() Summary { return h.Snapshot().Summarize() }
