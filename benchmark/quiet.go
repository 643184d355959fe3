package main

import (
	"sort"
	"time"
)

// The reference machine is a few cores of a shared host: a neighbour that
// wakes up slows a run by a third for seconds or minutes, and a quantile or
// a rate over the whole window then says how busy the neighbour was. So the
// bounded end-to-end metrics are taken over the quiet part of the window:
// the window is cut into slices, the slices are ranked by their mean
// latency, and the operations of the quietest fifth are pooled. A run needs
// only a fifth of its window undisturbed to read the same as an undisturbed
// run; a change to the program moves every slice, the quiet ones too. The
// same quantities over the whole window are reported unbounded as window.*
// (README, "Quiet slices").
const (
	sliceLen   = time.Second // request workloads; a compute workload's slice is one arm cycle
	quietShare = 0.2
)

// slice is the verified operations of one stretch of the measured window.
type slice struct {
	lat    samples
	onTime int           // those that met the workload's latency limit
	busy   time.Duration // what the stretch stands for when a rate is taken: its length, or its solving time
}

func (s *slice) add(d, limit time.Duration) {
	s.lat = append(s.lat, d)
	if limit <= 0 || d <= limit {
		s.onTime++
	}
}

// sliceCount is the number of equal slices a window of request traffic is
// cut into: about one per sliceLen, at least one.
func sliceCount(window time.Duration) int {
	return max(1, int((window+sliceLen/2)/sliceLen))
}

// timeSlices cuts a window into its equal slices and files each operation
// under the slice in which it began (open loop: fell due). A slice lasts
// until the last of its operations has completed, so its rate is the rate
// at which its operations were got through: that of the schedule when the
// open loop keeps up, lower when it falls behind.
func timeSlices(window time.Duration, begin, lat samples, limit time.Duration) []slice {
	n := sliceCount(window)
	width := window / time.Duration(n)
	out := make([]slice, n)
	for i := range out {
		out[i].busy = width
	}
	for i, at := range begin {
		k := min(int(at/width), n-1) // an operation that began as the window closed
		out[k].add(lat[i], limit)
		out[k].busy = max(out[k].busy, at+lat[i]-time.Duration(k)*width)
	}
	return out
}

// pool is the slices taken as one.
func pool(slices []slice) slice {
	var p slice
	for _, s := range slices {
		p.lat = append(p.lat, s.lat...)
		p.onTime += s.onTime
		p.busy += s.busy
	}
	return p
}

// quietest pools the quietShare of the slices whose mean latency is lowest.
// A slice without a verified operation is left out: it has no latency to
// rank by.
func quietest(slices []slice) slice {
	var live []slice
	for _, s := range slices {
		if len(s.lat) > 0 {
			live = append(live, s)
		}
	}
	mean := func(s slice) float64 { return s.lat.sum().Seconds() / float64(len(s.lat)) }
	sort.SliceStable(live, func(i, j int) bool { return mean(live[i]) < mean(live[j]) })
	keep := min(len(live), max(1, int(quietShare*float64(len(live))+0.5)))
	return pool(live[:keep])
}

// endToEndMetrics sets the bounded metrics from the quiet slices, and from
// all of them the same quantities over the whole window.
func endToEndMetrics(m *metrics, slices []slice) {
	q, all := quietest(slices), pool(slices)
	r := q.lat.ranked()
	m.timing("latency_ms_p50", r.ms(0.50), len(r))
	m.timing("latency_ms_p90", r.ms(0.90), len(r))
	m.set("ops_per_s", ratio(float64(q.onTime), q.busy.Seconds()))

	r = all.lat.ranked()
	m.timing("window.latency_ms_p50", r.ms(0.50), len(r))
	m.timing("window.latency_ms_p90", r.ms(0.90), len(r))
	m.timing("latency_ms_p99", r.ms(0.99), len(r))
	m.set("window.ops_per_s", ratio(float64(all.onTime), all.busy.Seconds()))
}
