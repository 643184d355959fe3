package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"xkaapi"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/tile"
)

// cholWorkload is the paper's Fig. 2 program: tile Cholesky as dataflow
// tasks. A solve is 120 coarse tasks whose internal/blas kernels do nearly
// all the work; internal/core only resolves the dependencies.
type cholWorkload struct {
	cfg   config
	n, nb int

	src     *tile.Dense
	refSum  float64 // checksum of the sequential factor
	rt1     *xkaapi.Runtime
	rtP     *xkaapi.Runtime
	arms    [numArms]solveFunc
	first   *tile.Tiled // first and last P-worker factor of the window,
	last    *tile.Tiled // kept for the residual check
	residue float64

	run           *armRun
	before, after poolSnap
	insert, drain samples // P-worker pool: SubmitKaapi, then Job.Wait
}

// Paper's Fig. 2 tile size; n gives 8x8 tiles.
const (
	cholN  = 1024
	cholNB = 128
)

func newCholWorkload(cfg config) *cholWorkload {
	w := &cholWorkload{cfg: cfg, n: cholN, nb: cholNB}
	if cfg.toy {
		w.n, w.nb = 96, 32
	}
	return w
}

// tileSum is a cheap checksum of a factor. The dataflow order applies the
// updates of each tile in the sequential order, so a correct parallel
// factor matches the sequential one to rounding.
func tileSum(t *tile.Tiled) float64 {
	var s float64
	for _, tb := range t.T {
		for _, v := range tb {
			s += v
		}
	}
	return s
}

func (w *cholWorkload) setup() error {
	w.src = tile.NewSPD(w.n, w.cfg.seed)
	ref := tile.FromDense(w.src, w.nb)
	if err := cholesky.Seq(ref); err != nil {
		return fmt.Errorf("reference factor: %w", err)
	}
	w.refSum = tileSum(ref)
	w.rt1 = xkaapi.New(xkaapi.WithWorkers(1))
	w.rtP = xkaapi.New(xkaapi.WithWorkers(w.cfg.p))
	w.arms = [numArms]solveFunc{
		armSeq: func(opTrace) (time.Duration, error) {
			t := tile.FromDense(w.src, w.nb)
			t0 := time.Now()
			err := cholesky.Seq(t)
			return time.Since(t0), w.check(t, err)
		},
		armW1: w.solveOn(w.rt1, false),
		armWP: w.solveOn(w.rtP, true),
	}
	return warmArms(w.arms, w.cfg.rounds)
}

// solveOn is cholesky.KaapiCtx taken apart: the untimed copy into tiles,
// then task insertion (SubmitKaapi returns once the root task is queued)
// and the drain (Job.Wait), timed together and separately.
func (w *cholWorkload) solveOn(rt *xkaapi.Runtime, record bool) solveFunc {
	return func(o opTrace) (time.Duration, error) {
		root := o.begin(0, "loadgen.solve")
		s := o.begin(root.id, "tile.FromDense")
		t := tile.FromDense(w.src, w.nb)
		s.end()
		t0 := time.Now()
		s = o.begin(root.id, "cholesky.SubmitKaapi")
		job, kernelErr := cholesky.SubmitKaapi(context.Background(), rt, t)
		s.end()
		t1 := time.Now()
		s = o.begin(root.id, "core.Wait")
		err := job.Wait()
		s.end()
		t2 := time.Now()
		root.end()
		if ke := kernelErr(); ke != nil {
			err = ke
		}
		if record {
			w.insert = append(w.insert, t1.Sub(t0))
			w.drain = append(w.drain, t2.Sub(t1))
			if w.first == nil {
				w.first = t
			}
			w.last = t
		}
		return t2.Sub(t0), w.check(t, err)
	}
}

func (w *cholWorkload) check(t *tile.Tiled, err error) error {
	if err != nil {
		return fmt.Errorf("cholesky n=%d: %w", w.n, err)
	}
	if got := tileSum(t); math.Abs(got-w.refSum) > 1e-9*math.Abs(w.refSum) {
		return fmt.Errorf("cholesky n=%d: factor checksum %v, sequential factor has %v", w.n, got, w.refSum)
	}
	return nil
}

func (w *cholWorkload) measure() error {
	w.insert, w.drain, w.first, w.last = nil, nil, nil, nil
	w.before = snapPool(w.rtP)
	w.run = runArms(w.arms, w.cfg.window, w.cfg.tr)
	w.after = snapPool(w.rtP)
	// The O(n³) residual is checked outside the window, on the first and
	// the last factor the P-worker pool produced.
	for i, t := range []*tile.Tiled{w.first, w.last} {
		if t == nil || (i == 1 && t == w.first) {
			continue
		}
		res := tile.CholeskyResidual(w.src, t)
		w.residue = max(w.residue, res)
		if !(res < 1e-10) {
			w.run.fail("cholesky n=%d: residual %g", w.n, res)
		}
	}
	return nil
}

func (w *cholWorkload) report(m *metrics) {
	w.run.report(m)
	wp := w.run.solves[armWP]
	coreMetrics(m, w.before, w.after, w.cfg.p, wp.sum().Seconds(), float64(len(wp)))
	m.timing("core.submit_us_p50", w.insert.p50()*1e3, len(w.insert))
	m.timing("core.wait_us_p50", w.drain.p50()*1e3, len(w.drain))
	m.timing("cholesky.insert_ms_p50", w.insert.p50(), len(w.insert))
	m.timing("cholesky.drain_ms_p50", w.drain.p50(), len(w.drain))
	m.timing("cholesky.seq_ms_p50", w.run.solves[armSeq].p50(), len(w.run.solves[armSeq]))
	m.set("cholesky.gflops", cholesky.Gflops(w.n, wp.ranked().at(0.50)))
	m.set("cholesky.residual", w.residue)
}

func (w *cholWorkload) tally() (int64, int64, string) { return w.run.tally() }

func (w *cholWorkload) close() {
	closePools(&w.rt1, &w.rtP)
}
