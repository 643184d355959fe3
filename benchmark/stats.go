package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of operation times, in the order they were taken.
type samples []time.Duration

// ranked is a sample set sorted once, to read several quantiles from.
type ranked []time.Duration

func (s samples) ranked() ranked {
	c := make(ranked, len(s))
	copy(c, s)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// at returns the q-quantile (0 < q <= 1) by the nearest-rank rule, 0 for an
// empty set. Nearest rank returns a value that was measured, never an
// interpolation between two.
func (r ranked) at(q float64) time.Duration {
	if len(r) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(r)))) - 1
	return r[min(max(i, 0), len(r)-1)]
}

func (r ranked) ms(q float64) float64 { return float64(r.at(q)) / float64(time.Millisecond) }

// p50 is the median in milliseconds.
func (s samples) p50() float64 { return s.ranked().ms(0.50) }

// sum is the total time of the set.
func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// tailPercentiles are the tail percentiles the report may print, each with
// the share of samples beyond it, per thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{90, 100}, {99, 10}, {99.9, 1}}

// supportedTail is the percentile rule: the highest percentile that has at
// least ten samples beyond it, or 0 when even p90 has fewer — then only
// the median is printed.
func supportedTail(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// ratio is a/b, 0 when b is 0: a counter ratio over a window in which the
// denominator event never happened reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of a small set of plain numbers (set-up times,
// per-solve phase times).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[(len(c)-1)/2]
}
