package xkaapi_test

import (
	"sync/atomic"
	"testing"

	"xkaapi"
	"xkaapi/gomp"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/epx"
	"xkaapi/internal/skyline"
	"xkaapi/internal/tile"
	"xkaapi/quark"
)

// Integration tests: whole-stack scenarios crossing the public runtime,
// the compatibility layers and the numerical substrates, mirroring how the
// paper's evaluation programs compose them.

// TestIntegrationMixedParadigms runs all three paradigms in one program:
// dataflow tasks produce tile data, a fork-join tree checks it, and an
// adaptive loop reduces it — the "multi paradigm without penalty" claim.
func TestIntegrationMixedParadigms(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()

	const n = 1 << 16
	data := make([]int64, n)
	var h1, h2 xkaapi.Handle
	var treeSum, loopSum int64

	rt.Run(func(p *xkaapi.Proc) {
		// Dataflow: fill then double, strictly ordered.
		p.SpawnTask(func(*xkaapi.Proc) {
			for i := range data {
				data[i] = int64(i)
			}
		}, xkaapi.Write(&h1))
		p.SpawnTask(func(*xkaapi.Proc) {
			for i := range data {
				data[i] *= 2
			}
		}, xkaapi.ReadWrite(&h1), xkaapi.Write(&h2))
		p.Sync()

		// Fork-join: tree-sum the array.
		var tree func(p *xkaapi.Proc, lo, hi int, out *int64)
		tree = func(p *xkaapi.Proc, lo, hi int, out *int64) {
			if hi-lo <= 4096 {
				var s int64
				for i := lo; i < hi; i++ {
					s += data[i]
				}
				*out = s
				return
			}
			mid := (lo + hi) / 2
			var l, r int64
			p.Spawn(func(p *xkaapi.Proc) { tree(p, lo, mid, &l) })
			tree(p, mid, hi, &r)
			p.Sync()
			*out = l + r
		}
		tree(p, 0, n, &treeSum)

		// Adaptive loop with reduction over the same data.
		loopSum = xkaapi.ForeachReduce(p, 0, n,
			func() int64 { return 0 },
			func(_ *xkaapi.Proc, lo, hi int, acc int64) int64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			},
			func(a, b int64) int64 { return a + b })
	})

	want := int64(n) * (n - 1) // sum of 2*i for i<n
	if treeSum != want || loopSum != want {
		t.Fatalf("treeSum=%d loopSum=%d want %d", treeSum, loopSum, want)
	}
}

// TestIntegrationCholeskyAllSchedulersSameFactor runs the Fig. 2 workload
// across every scheduler and requires bitwise identical factors.
func TestIntegrationCholeskyAllSchedulersSameFactor(t *testing.T) {
	const n, nb = 96, 16
	src := tile.NewSPD(n, 99)

	factors := map[string]*tile.Tiled{}

	seq := tile.FromDense(src, nb)
	if err := cholesky.Seq(seq); err != nil {
		t.Fatal(err)
	}
	factors["seq"] = seq

	rt := xkaapi.New(xkaapi.WithWorkers(4))
	mk := tile.FromDense(src, nb)
	if err := cholesky.Kaapi(rt, mk); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	factors["kaapi"] = mk

	for _, eng := range []quark.Engine{quark.EngineNative, quark.EngineKaapi} {
		q := quark.New(4, eng)
		m := tile.FromDense(src, nb)
		if err := cholesky.RunQuark(q, m); err != nil {
			t.Fatal(err)
		}
		q.Delete()
		if eng == quark.EngineNative {
			factors["quark-native"] = m
		} else {
			factors["quark-kaapi"] = m
		}
	}

	ms := tile.FromDense(src, nb)
	if err := cholesky.Static(4, ms); err != nil {
		t.Fatal(err)
	}
	factors["static"] = ms

	for name, f := range factors {
		if name == "seq" {
			continue
		}
		for bi := 0; bi < seq.NT; bi++ {
			for bj := 0; bj <= bi; bj++ {
				a, b := seq.Tile(bi, bj), f.Tile(bi, bj)
				for x := range a {
					if a[x] != b[x] {
						t.Fatalf("%s: tile (%d,%d) differs at %d", name, bi, bj, x)
					}
				}
			}
		}
	}
}

// TestIntegrationSparseFactorThenSolveAcrossRuntimes factors the Fig. 7
// matrix under each runtime and checks the solve agrees.
func TestIntegrationSparseFactorThenSolveAcrossRuntimes(t *testing.T) {
	env := skyline.GenEnvelope(256, 0.08, 5)
	src, err := skyline.NewSPD(env, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(factor func(m *skyline.Matrix) error) []float64 {
		m := src.Clone()
		if err := factor(m); err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, m.N)
		for i := range rhs {
			rhs[i] = float64(i%13) - 6
		}
		m.SolveInPlace(rhs)
		return rhs
	}
	ref := solve(skyline.FactorSeq)

	rt := xkaapi.New(xkaapi.WithWorkers(3))
	got := solve(func(m *skyline.Matrix) error { return skyline.FactorKaapi(rt, m) })
	rt.Close()
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("kaapi solution differs at %d", i)
		}
	}

	team := gomp.NewTeam(3)
	got = solve(func(m *skyline.Matrix) error { return skyline.FactorGomp(team, m) })
	team.Close()
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("gomp solution differs at %d", i)
		}
	}
}

// skylineFactorFlops counts the floating-point operations of one blocked
// factorization of m: the potrf/trsm/syrk/gemm calls FactorSeq makes on the
// present blocks, at their live sizes.
func skylineFactorFlops(m *skyline.Matrix) (flops float64) {
	for k := 0; k < m.NB; k++ {
		rk := float64(m.Rows(k))
		flops += rk * rk * rk / 3 // potrf
		for i := k + 1; i < m.NB; i++ {
			if m.IsEmpty(i, k) {
				continue
			}
			ri := float64(m.Rows(i))
			flops += ri*rk*rk + ri*ri*rk // trsm + syrk
			for j := k + 1; j < i; j++ {
				if !m.IsEmpty(j, k) && !m.IsEmpty(i, j) {
					flops += 2 * ri * float64(m.Rows(j)) * rk // gemm
				}
			}
		}
	}
	return flops
}

// TestIntegrationEPXShapes checks the defining Fig. 8 property of the two
// instances — MEPPEN is loop-dominated, MAXPLANE is CHOLESKY-dominated — on
// the work the instance itself determines, not on how fast this box runs
// either kernel: the factorization flops of one time step against its loop
// updates (one LOOPELM element, one REPERA striker node each).
func TestIntegrationEPXShapes(t *testing.T) {
	// What one loop update costs, counted from ElemForceRange: 8 Gauss
	// points of about 400 flops each (a REPERA striker costs no less:
	// Refine iterations of 15 flops for every facet in reach).
	const updateFlops = 8 * 400
	factorFlopsPerUpdate := func(inst epx.Instance) float64 {
		s, err := epx.NewSim(inst)
		if err != nil {
			t.Fatal(err)
		}
		perStep := skylineFactorFlops(s.H) * float64(max(1, inst.HScale)) / float64(max(1, inst.HSkip))
		return perStep / float64(s.St.M.NumElems()+s.St.M.NumNodes())
	}
	mep := factorFlopsPerUpdate(epx.MEPPEN(1))
	if mep > updateFlops/10 {
		t.Errorf("MEPPEN should be loop-dominated: %.0f factorization flops per loop update, want under a tenth of an update's %d", mep, updateFlops)
	}
	maxp := factorFlopsPerUpdate(epx.MAXPLANE(1))
	if maxp < updateFlops {
		t.Errorf("MAXPLANE should be cholesky-dominated: %.0f factorization flops per loop update, want above an update's %d", maxp, updateFlops)
	}
}

// TestIntegrationStatsAggregationEvidence verifies the §II-C mechanism
// end-to-end: with aggregation on, combiner passes answer posted requests.
func TestIntegrationStatsAggregationEvidence(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()
	var sink atomic.Int64
	rt.Run(func(p *xkaapi.Proc) {
		fib(p, new(int64), 24)
		xkaapi.Foreach(p, 0, 1<<18, func(_ *xkaapi.Proc, lo, hi int) {
			sink.Add(int64(hi - lo))
		})
	})
	s := rt.Stats()
	if s.StealRequests == 0 {
		t.Skip("no steals observed on this machine")
	}
	if s.Combines == 0 {
		t.Fatalf("requests posted but no combiner pass ran: %+v", s)
	}
	if s.CombineServed > s.StealRequests {
		t.Fatalf("served more requests than posted: %+v", s)
	}
}
