package main

import (
	"fmt"
	"time"

	"xkaapi"
	"xkaapi/server"
)

// fibWorkload is the paper's Fig. 1 program: naive Fibonacci with one Spawn
// per node, one inline call and one Sync. The task bodies do no work, so
// internal/core's spawn, sync, deque and steal paths are all there is.
type fibWorkload struct {
	cfg  config
	n    int
	want int64

	rt1, rtP *xkaapi.Runtime
	arms     [numArms]solveFunc

	run           *armRun
	before, after poolSnap
	submit, wait  samples // P-worker pool: time inside Submit, Submit return to Wait return
}

// fibN is sized so that one window holds over a hundred P-worker solves,
// which a p90 needs; the cost per task does not depend on n.
const fibN = 27

func newFibWorkload(cfg config) *fibWorkload {
	w := &fibWorkload{cfg: cfg, n: fibN}
	if cfg.toy {
		w.n = 16
	}
	w.want = server.FibSeq(w.n) // the linear recurrence the server verifies /fib with
	return w
}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func fibTask(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var a, b int64
	p.Spawn(func(p *xkaapi.Proc) { fibTask(p, &a, n-1) })
	fibTask(p, &b, n-2)
	p.Sync()
	*r = a + b
}

func (w *fibWorkload) setup() error {
	w.rt1 = xkaapi.New(xkaapi.WithWorkers(1))
	w.rtP = xkaapi.New(xkaapi.WithWorkers(w.cfg.p))
	w.arms = [numArms]solveFunc{
		armSeq: func(opTrace) (time.Duration, error) {
			t0 := time.Now()
			got := fibSeq(w.n)
			return time.Since(t0), w.check(got, nil)
		},
		armW1: w.solveOn(w.rt1, false),
		armWP: w.solveOn(w.rtP, true),
	}
	return warmArms(w.arms, w.cfg.rounds)
}

// solveOn is Runtime.Run taken apart into its Submit and its Wait, so the
// two can be timed separately.
func (w *fibWorkload) solveOn(rt *xkaapi.Runtime, record bool) solveFunc {
	return func(o opTrace) (time.Duration, error) {
		var got int64
		root := o.begin(0, "loadgen.solve")
		t0 := time.Now()
		s := o.begin(root.id, "core.Submit")
		job := rt.Submit(func(p *xkaapi.Proc) { fibTask(p, &got, w.n) })
		s.end()
		t1 := time.Now()
		s = o.begin(root.id, "core.Wait")
		err := job.Wait()
		s.end()
		t2 := time.Now()
		root.end()
		if record {
			w.submit = append(w.submit, t1.Sub(t0))
			w.wait = append(w.wait, t2.Sub(t1))
		}
		return t2.Sub(t0), w.check(got, err)
	}
}

func (w *fibWorkload) check(got int64, err error) error {
	if err != nil {
		return fmt.Errorf("fib(%d): %w", w.n, err)
	}
	if got != w.want {
		return fmt.Errorf("fib(%d) = %d, want %d", w.n, got, w.want)
	}
	return nil
}

func (w *fibWorkload) measure() error {
	w.submit, w.wait = nil, nil
	w.before = snapPool(w.rtP)
	w.run = runArms(w.arms, w.cfg.window, w.cfg.tr)
	w.after = snapPool(w.rtP)
	return nil
}

func (w *fibWorkload) report(m *metrics) {
	w.run.report(m)
	wp := w.run.solves[armWP]
	coreMetrics(m, w.before, w.after, w.cfg.p, wp.sum().Seconds(), float64(len(wp)))
	m.timing("core.submit_us_p50", w.submit.p50()*1e3, len(w.submit))
	m.timing("core.wait_us_p50", w.wait.p50()*1e3, len(w.wait))
}

func (w *fibWorkload) tally() (int64, int64, string) { return w.run.tally() }

func (w *fibWorkload) close() {
	closePools(&w.rt1, &w.rtP)
}
