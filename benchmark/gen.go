package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xkaapi/internal/xrand"
)

// Every generated input comes from an xorshift stream seeded by -seed (and a
// per-purpose salt), so one seed always yields the same inputs.

func newRand(seed, salt uint64) xrand.Rand {
	return xrand.New(seed*0x9E3779B97F4A7C15 ^ salt*0xBF58476D1CE4E5B9 ^ 0x94D049BB133111EB)
}

// unit draws a uniform float in [0, 1).
func unit(r *xrand.Rand) float64 { return float64(r.Next()>>11) / (1 << 53) }

// between draws a uniform integer in [lo, hi].
func between(r *xrand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// poissonArrivals returns the due times of a Poisson process of the given
// rate (per second) inside [0, window), given that every slice of the
// window (quiet.go) has its expected number of arrivals: that many
// independent uniform times per slice, sorted. The gaps are the bursts and
// lulls independent users make; every seed offers the same load, and every
// slice of one window does, so a slice is quiet because the machine was.
func poissonArrivals(r *xrand.Rand, rate float64, window time.Duration) []time.Duration {
	n := sliceCount(window)
	width := window / time.Duration(n)
	per := int(rate * width.Seconds())
	due := make([]time.Duration, 0, n*per)
	for s := 0; s < n; s++ {
		for i := 0; i < per; i++ {
			due = append(due, time.Duration(s)*width+time.Duration(unit(r)*float64(width)))
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *xrand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, unit(r)), len(z.cdf)-1)
}

// Request kinds, one per server endpoint.
const (
	kindFib = iota
	kindLoop
	kindChol
	numKinds
)

// request is one HTTP request of a serving workload. Its path is also its
// key: two requests with the same path ask for the same computation.
type request struct {
	kind   int
	n      int
	verify bool          // /cholesky only: ask the server for the residual
	due    time.Duration // open loop only: offset from the window start
	path   string
}

// newRequest builds a request; nb and verify matter to /cholesky only.
func newRequest(kind, n, nb int, verify bool) request {
	q := request{kind: kind, n: n, verify: verify}
	switch kind {
	case kindFib:
		q.path = fmt.Sprintf("/fib?n=%d", n)
	case kindLoop:
		q.path = fmt.Sprintf("/loop?n=%d", n)
	case kindChol:
		q.path = fmt.Sprintf("/cholesky?n=%d&nb=%d", n, nb)
		if verify {
			q.path += "&verify=1"
		}
	}
	return q
}

// Fixed parameters of the serving workloads (README, "Fixed parameters").
const (
	mixedFibShare, mixedLoopShare = 0.10, 0.70 // the rest is /cholesky
	mixedFibLo, mixedFibHi        = 16, 23
	mixedLoopLo, mixedLoopHi      = 1_000_000, 6_000_000
	mixedCholLo, mixedCholHi      = 128, 320
	mixedVerifyShare              = 0.05 // of /cholesky requests

	hotKeyCount = 64
	hotZipfS    = 1.1
)

var mixedCholNB = [...]int{32, 48, 64}

// mixedRequest draws one request of the serve_mixed_open mix. /fib has
// only nine sizes worth serving, so it is kept to a tenth of the requests;
// /loop sizes come from a range of five million and /cholesky from 193
// orders times three tile sizes, so that fewer than three requests in ten
// repeat an earlier key.
func mixedRequest(r *xrand.Rand) request {
	switch u := unit(r); {
	case u < mixedFibShare:
		return newRequest(kindFib, between(r, mixedFibLo, mixedFibHi), 0, false)
	case u < mixedFibShare+mixedLoopShare:
		return newRequest(kindLoop, between(r, mixedLoopLo, mixedLoopHi), 0, false)
	default:
		nb := mixedCholNB[r.Intn(len(mixedCholNB))]
		return newRequest(kindChol, between(r, mixedCholLo, mixedCholHi), nb, unit(r) < mixedVerifyShare)
	}
}

// mixedSchedule is the open-loop schedule of serve_mixed_open: Poisson due
// times at rate, each with a request of the mix.
func mixedSchedule(seed uint64, rate float64, window time.Duration) []request {
	r := newRand(seed, 1)
	due := poissonArrivals(&r, rate, window)
	reqs := make([]request, len(due))
	for i, d := range due {
		reqs[i] = mixedRequest(&r)
		reqs[i].due = d
	}
	return reqs
}

// hotKeys is the fixed key set of serve_hot_closed, in popularity order:
// the eleven /fib sizes 10..20 and 53 evenly spaced /loop sizes in
// 1 000..50 000, interleaved by a fixed permutation so both endpoints sit
// among the popular ranks. The set does not depend on the seed; only the
// order in which clients draw from it does.
func hotKeys() []request {
	keys := make([]request, 0, hotKeyCount)
	for n := 10; n <= 20; n++ {
		keys = append(keys, newRequest(kindFib, n, 0, false))
	}
	for i := 0; len(keys) < hotKeyCount; i++ {
		keys = append(keys, newRequest(kindLoop, 1000+i*49000/(hotKeyCount-12), 0, false))
	}
	r := xrand.New(0x5EED0F4B1D)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}
