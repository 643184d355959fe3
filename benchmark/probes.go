package main

import (
	"fmt"
	"time"

	"xkaapi"
	"xkaapi/internal/blas"
	"xkaapi/internal/epx"
	"xkaapi/internal/latency"
	"xkaapi/internal/skyline"
	"xkaapi/internal/tile"
)

// The probes time single layers on their own, single-threaded unless the
// layer is a parallel one, before the window of a traced run. Each runs in
// the one workload whose time that layer sets, so a kernel change shows in
// the probe first and in that workload's latency next.

// repeat calls f until budget is spent (at least three times). f does its
// untimed preparation, then returns the time of the call it probes.
func repeat(budget time.Duration, f func() time.Duration) samples {
	var s samples
	end := time.Now().Add(budget)
	for len(s) < 3 || time.Now().Before(end) {
		s = append(s, f())
	}
	return s
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// runProbes runs the probes of the named workload: the blas kernels and
// tile.FromDense for cholesky_dataflow, the skyline factorization for
// epx_loops, the latency histogram for serve_hot_closed.
func runProbes(name string, cfg config, m *metrics) error {
	switch name {
	case "cholesky_dataflow":
		return probeKernels(cfg, m)
	case "epx_loops":
		return probeSkyline(cfg, m)
	case "serve_hot_closed":
		probeHistogram(m)
	}
	return nil
}

func probeKernels(cfg config, m *metrics) error {
	n, nb := cholN, cholNB
	if cfg.toy {
		n, nb = 96, 32
	}
	// A diagonally dominant tile: potrf needs a positive definite input, and
	// the other kernels do not care.
	spd := tile.FromDense(tile.NewSPD(nb, cfg.seed), nb).Tile(0, 0)
	a := append([]float64(nil), spd...)
	c := make([]float64, nb*nb)
	cube := float64(nb) * float64(nb) * float64(nb)
	gflops := func(flops float64, s samples) float64 { return ratio(flops/1e9, s.p50()/1e3) }

	m.set("blas.gemm_gflops", gflops(2*cube, repeat(cfg.probe, func() time.Duration {
		return timed(func() { blas.GemmNT(nb, nb, nb, a, nb, spd, nb, c, nb) })
	})))
	m.set("blas.syrk_gflops", gflops(cube, repeat(cfg.probe, func() time.Duration {
		return timed(func() { blas.SyrkLN(nb, nb, a, nb, c, nb) })
	})))
	m.set("blas.trsm_gflops", gflops(cube, repeat(cfg.probe, func() time.Duration {
		copy(c, a)
		return timed(func() { blas.TrsmRLTN(nb, nb, spd, nb, c, nb) })
	})))
	var perr error
	m.set("blas.potrf_gflops", gflops(cube/3, repeat(cfg.probe, func() time.Duration {
		copy(c, spd)
		return timed(func() { perr = blas.PotrfLower(nb, c, nb) })
	})))
	if perr != nil {
		return fmt.Errorf("potrf probe: %w", perr)
	}

	src := tile.NewSPD(n, cfg.seed)
	fd := repeat(cfg.probe, func() time.Duration {
		return timed(func() { tile.FromDense(src, nb) })
	})
	m.timing("tile.fromdense_ms_p50", fd.p50(), len(fd))
	return nil
}

// probeSkyline times the skyline factorization of the MEPPEN instance's H
// matrix, as dataflow tasks on a P-worker pool.
func probeSkyline(cfg config, m *metrics) error {
	inst := epx.MEPPEN(epxScale)
	h, err := skyline.NewFromEnvelope(skyline.GenEnvelope(inst.HN, inst.HFill, inst.Seed+cfg.seed), inst.HBS)
	if err != nil {
		return fmt.Errorf("skyline probe: %w", err)
	}
	rt := xkaapi.New(xkaapi.WithWorkers(cfg.p))
	defer rt.Close()
	sf := repeat(cfg.probe, func() time.Duration {
		h.FillSPD(inst.Seed)
		return timed(func() { err = skyline.FactorKaapi(rt, h) })
	})
	if err != nil {
		return fmt.Errorf("skyline probe: %w", err)
	}
	m.timing("skyline.factor_ms_p50", sf.p50(), len(sf))
	return nil
}

// probeHistogram times the server's own latency accounting: a floor under
// every request's cost.
func probeHistogram(m *metrics) {
	const records = 1_000_000
	var hist latency.Histogram
	d := timed(func() {
		for i := 0; i < records; i++ {
			hist.Record(time.Duration(i))
		}
	})
	m.set("latency.record_ns", float64(d.Nanoseconds())/records)
}
