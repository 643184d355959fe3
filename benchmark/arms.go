package main

import (
	"time"
)

// The three compute workloads run the same problem three ways — the arms:
// a sequential baseline, a 1-worker pool and a P-worker pool. Both pools
// are alive for the whole run and the arms are interleaved in repeating
// blocks, so drift on a shared machine hits all three alike.
const (
	armSeq = iota
	armW1
	armWP
	numArms
)

// armCycle is the nominal length of one seq / 1-worker / P-worker cycle;
// the P-worker arm, whose samples are the end-to-end metrics, gets most
// of it. One cycle's P-worker solves are one slice of the window (quiet.go).
const armCycle = 1500 * time.Millisecond

var armShare = [numArms]float64{0.1 / 1.5, 0.3 / 1.5, 1.1 / 1.5}

// solveFunc runs one verified solve: untimed preparation, the timed call,
// the check of its output. It returns the timed duration.
type solveFunc func(o opTrace) (time.Duration, error)

// armRun holds the samples of one measured window.
type armRun struct {
	counts
	solves  [numArms]samples
	cycles  []slice // the P-worker solves, cycle by cycle
	traced  samples // P-worker solves that recorded spans
	plain   samples // P-worker solves that did not
	elapsed time.Duration
}

// runArms measures arms for window. Every block runs at least one solve
// and ends at an absolute deadline, so a long solve shortens the next
// block instead of stretching the window.
func runArms(arms [numArms]solveFunc, window time.Duration, tr *tracer) *armRun {
	r := &armRun{}
	cycles := max(1, int((window+armCycle/2)/armCycle))
	cycle := window / time.Duration(cycles)
	start := time.Now()
	r.cycles = make([]slice, cycles)
	for c := 0; c < cycles; c++ {
		blockEnd := start.Add(time.Duration(c) * cycle)
		for a := 0; a < numArms; a++ {
			blockEnd = blockEnd.Add(time.Duration(armShare[a] * float64(cycle)))
			for first := true; first || time.Now().Before(blockEnd); first = false {
				var o opTrace
				if a == armWP {
					n := len(r.solves[a])
					o = traceOp(tr, uint64(n), n%2 == 1)
				}
				d, err := arms[a](o)
				r.attempted++
				if err != nil {
					r.fail("%v", err)
					continue
				}
				r.solves[a] = append(r.solves[a], d)
				if a != armWP {
					continue
				}
				r.cycles[c].add(d, 0)
				r.cycles[c].busy += d
				if o.on() {
					r.traced = append(r.traced, d)
				} else {
					r.plain = append(r.plain, d)
				}
			}
		}
	}
	r.elapsed = time.Since(start)
	return r
}

// warmRounds is the warm-up of a compute workload: every arm this many
// times. A solve takes 20 to 150 ms, so a warm-up of fixed duration would
// end up to one solve late and make setup_s unsteady; a fixed number of
// solves costs the same every time.
const warmRounds = 2

// warmArms runs the arms round-robin, unrecorded.
func warmArms(arms [numArms]solveFunc, rounds int) error {
	for i := 0; i < rounds; i++ {
		for _, solve := range arms {
			if _, err := solve(opTrace{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// report sets the metrics every compute workload has: an operation is one
// solve on the P-worker pool, and its rate is per second of solving. The
// 1-worker and sequential arms never record spans, so on a traced run
// speedup_x compares them with the P-worker solves that did not either.
func (r *armRun) report(m *metrics) {
	wp, w1, seq := r.solves[armWP], r.solves[armW1], r.solves[armSeq]
	endToEndMetrics(m, r.cycles)
	if len(r.traced) > 0 {
		wp = r.plain
	}
	m.timing("speedup_x", ratio(w1.p50(), wp.p50()), len(w1))
	m.timing("overhead_x", ratio(w1.p50(), seq.p50()), len(seq))
	traceOverhead(m, r.traced, r.plain)
	r.counts.report(m, r.elapsed)
	// Every solve of a window has the same input.
	m.set("loadgen.key_reuse_share", ratio(float64(r.attempted-1), float64(r.attempted)))
}
