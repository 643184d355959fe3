package main

import (
	"fmt"
	"time"

	"xkaapi/internal/epx"
	"xkaapi/internal/skyline"
)

// epxWorkload is the paper's application: the MEPPEN instance, whose
// memory-bound LOOPELM and REPERA loops run under the adaptive ForEach
// (splitters, not spawns), with a small skyline factorization and a
// sequential "other" phase that bounds the speed-up.
type epxWorkload struct {
	cfg  config
	inst epx.Instance

	ref      [3]float64            // checksums of the sequential backend
	backends [numArms]*spanBackend // NewSeqBackend, NewKaapiBackend(1), NewKaapiBackend(P)
	arms     [numArms]solveFunc

	run    *armRun
	phases [numArms][]epx.PhaseTimes
}

const epxScale = 4

func newEpxWorkload(cfg config) *epxWorkload {
	w := &epxWorkload{cfg: cfg, inst: epx.MEPPEN(epxScale)}
	if cfg.toy {
		w.inst = epx.MEPPEN(1)
		w.inst.NX, w.inst.NY, w.inst.NZ, w.inst.Steps = 6, 6, 3, 2
	}
	w.inst.Seed += cfg.seed
	return w
}

// spanBackend is a shipped backend with a span around each of its two
// calls. epx.NewKaapiBackend forwards them to Runtime.Foreach and
// skyline.FactorKaapi, which the spans are named after. It keeps its pool
// to itself, so this workload has no core.* counters.
type spanBackend struct {
	epx.Backend
	o  opTrace // the solve in progress
	up uint64  // its Sim.Run span
}

func (b *spanBackend) Foreach(lo, hi int, body func(lo, hi int)) {
	s := b.o.begin(b.up, "core.Foreach")
	defer s.end() // the backend panics when a loop body fails
	b.Backend.Foreach(lo, hi, body)
}

func (b *spanBackend) Factor(m *skyline.Matrix) error {
	s := b.o.begin(b.up, "skyline.FactorKaapi")
	defer s.end()
	return b.Backend.Factor(m)
}

func sums(s *epx.Sim) [3]float64 { return [3]float64{s.ForceNorm, s.CandSum, s.SolNorm} }

func (w *epxWorkload) setup() error {
	sim, err := epx.NewSim(w.inst)
	if err != nil {
		return err
	}
	if _, err := sim.Run(epx.NewSeqBackend()); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	w.ref = sums(sim)
	w.backends = [numArms]*spanBackend{
		armSeq: {Backend: epx.NewSeqBackend()},
		armW1:  {Backend: epx.NewKaapiBackend(1)},
		armWP:  {Backend: epx.NewKaapiBackend(w.cfg.p)},
	}
	for a := range w.arms {
		w.arms[a] = w.solveOn(a)
	}
	return warmArms(w.arms, w.cfg.rounds)
}

// solveOn runs one simulation on b: NewSim untimed, Sim.Run timed, the
// checksums compared with the sequential backend's (the loops own their
// writes, so a correct parallel run is bitwise equal).
func (w *epxWorkload) solveOn(arm int) solveFunc {
	b := w.backends[arm]
	return func(o opTrace) (d time.Duration, err error) {
		root := o.begin(0, "loadgen.solve")
		defer root.end()
		s := o.begin(root.id, "epx.NewSim")
		sim, err := epx.NewSim(w.inst)
		s.end()
		if err != nil {
			return 0, err
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("epx %s: loop failed: %v", w.inst.Name, r)
			}
		}()
		s = o.begin(root.id, "epx.Run")
		b.o, b.up = o, s.id
		t0 := time.Now()
		pt, err := sim.Run(b)
		d = time.Since(t0)
		s.end()
		if err != nil {
			return d, err
		}
		if got := sums(sim); got != w.ref {
			return d, fmt.Errorf("epx %s: checksums %v, sequential backend has %v", w.inst.Name, got, w.ref)
		}
		w.phases[arm] = append(w.phases[arm], pt)
		return d, nil
	}
}

func (w *epxWorkload) measure() error {
	w.phases = [numArms][]epx.PhaseTimes{}
	w.run = runArms(w.arms, w.cfg.window, w.cfg.tr)
	return nil
}

// phaseMedian is the per-solve median of one phase, in milliseconds.
func phaseMedian(pts []epx.PhaseTimes, f func(epx.PhaseTimes) time.Duration) float64 {
	v := make([]float64, len(pts))
	for i, pt := range pts {
		v[i] = float64(f(pt)) / float64(time.Millisecond)
	}
	return medianOf(v)
}

func (w *epxWorkload) report(m *metrics) {
	w.run.report(m)
	loops := func(pt epx.PhaseTimes) time.Duration { return pt.Repera + pt.Loopelm }
	n := len(w.phases[armWP])
	m.timing("epx.repera_ms", phaseMedian(w.phases[armWP], func(pt epx.PhaseTimes) time.Duration { return pt.Repera }), n)
	m.timing("epx.loopelm_ms", phaseMedian(w.phases[armWP], func(pt epx.PhaseTimes) time.Duration { return pt.Loopelm }), n)
	m.timing("epx.cholesky_ms", phaseMedian(w.phases[armWP], func(pt epx.PhaseTimes) time.Duration { return pt.Cholesky }), n)
	m.timing("epx.other_ms", phaseMedian(w.phases[armWP], func(pt epx.PhaseTimes) time.Duration { return pt.Other }), n)
	m.set("epx.loop_speedup_x", ratio(phaseMedian(w.phases[armW1], loops), phaseMedian(w.phases[armWP], loops)))
}

func (w *epxWorkload) tally() (int64, int64, string) { return w.run.tally() }

func (w *epxWorkload) close() {
	for a, b := range w.backends {
		if b != nil {
			b.Close()
			w.backends[a] = nil
		}
	}
}
