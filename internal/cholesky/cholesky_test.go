package cholesky

import (
	"testing"
	"time"

	"xkaapi"
	"xkaapi/internal/tile"
	"xkaapi/quark"
)

const residTol = 1e-10

func spdTiled(n, nb int) (*tile.Dense, *tile.Tiled) {
	d := tile.NewSPD(n, 1234)
	return d, tile.FromDense(d, nb)
}

func TestSeqFactorsCorrectly(t *testing.T) {
	for _, cfg := range [][2]int{{16, 4}, {65, 16}, {100, 32}, {8, 16}} {
		d, tl := spdTiled(cfg[0], cfg[1])
		if err := Seq(tl); err != nil {
			t.Fatal(err)
		}
		if r := tile.CholeskyResidual(d, tl); r > residTol {
			t.Fatalf("n=%d nb=%d: residual %g", cfg[0], cfg[1], r)
		}
	}
}

func TestKaapiFactorsCorrectly(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()
	for _, cfg := range [][2]int{{16, 4}, {96, 16}, {130, 32}} {
		d, tl := spdTiled(cfg[0], cfg[1])
		if err := Kaapi(rt, tl); err != nil {
			t.Fatal(err)
		}
		if r := tile.CholeskyResidual(d, tl); r > residTol {
			t.Fatalf("n=%d nb=%d: residual %g", cfg[0], cfg[1], r)
		}
	}
}

func TestQuarkNativeFactorsCorrectly(t *testing.T) {
	q := quark.New(4, quark.EngineNative)
	defer q.Delete()
	for _, cfg := range [][2]int{{16, 4}, {96, 16}} {
		d, tl := spdTiled(cfg[0], cfg[1])
		if err := RunQuark(q, tl); err != nil {
			t.Fatal(err)
		}
		if r := tile.CholeskyResidual(d, tl); r > residTol {
			t.Fatalf("n=%d nb=%d: residual %g", cfg[0], cfg[1], r)
		}
	}
}

func TestQuarkKaapiFactorsCorrectly(t *testing.T) {
	q := quark.New(4, quark.EngineKaapi)
	defer q.Delete()
	for _, cfg := range [][2]int{{16, 4}, {96, 16}} {
		d, tl := spdTiled(cfg[0], cfg[1])
		if err := RunQuark(q, tl); err != nil {
			t.Fatal(err)
		}
		if r := tile.CholeskyResidual(d, tl); r > residTol {
			t.Fatalf("n=%d nb=%d: residual %g", cfg[0], cfg[1], r)
		}
	}
}

func TestStaticFactorsCorrectly(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		for _, cfg := range [][2]int{{16, 4}, {96, 16}, {70, 32}} {
			d, tl := spdTiled(cfg[0], cfg[1])
			if err := Static(p, tl); err != nil {
				t.Fatal(err)
			}
			if r := tile.CholeskyResidual(d, tl); r > residTol {
				t.Fatalf("p=%d n=%d nb=%d: residual %g", p, cfg[0], cfg[1], r)
			}
		}
	}
}

// Same input, same kernel sequence per tile → bitwise equal factors from
// every scheduler. The tile sizes cover the kernels' paths against the 8×4
// micro-block: 16 is whole blocks; 52 and its ragged last tile of 44 are
// whole in columns but leave four rows over (52 % 8 = 44 % 8 = 4); 54
// leaves six rows and two columns over in every tile and makes the last
// one 39, an odd count with seven rows and three columns over.
func TestAllSchedulersAgree(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(3))
	defer rt.Close()
	qn := quark.New(3, quark.EngineNative)
	defer qn.Delete()
	qk := quark.New(3, quark.EngineKaapi)
	defer qk.Delete()
	schedulers := []struct {
		name   string
		factor func(*tile.Tiled) error
	}{
		{"kaapi", func(tl *tile.Tiled) error { return Kaapi(rt, tl) }},
		{"quark native", func(tl *tile.Tiled) error { return RunQuark(qn, tl) }},
		{"quark kaapi", func(tl *tile.Tiled) error { return RunQuark(qk, tl) }},
		{"static", func(tl *tile.Tiled) error { return Static(3, tl) }},
	}
	for _, cfg := range [][2]int{{64, 16}, {200, 52}, {201, 54}} {
		n, nb := cfg[0], cfg[1]
		d, ref := spdTiled(n, nb)
		if err := Seq(ref); err != nil {
			t.Fatal(err)
		}
		if r := tile.CholeskyResidual(d, ref); r > residTol {
			t.Fatalf("n=%d nb=%d: residual %g", n, nb, r)
		}
		for _, s := range schedulers {
			_, tl := spdTiled(n, nb)
			if err := s.factor(tl); err != nil {
				t.Fatalf("%s n=%d nb=%d: %v", s.name, n, nb, err)
			}
			for i, rtile := range ref.T {
				for x := range rtile {
					if rtile[x] != tl.T[i][x] {
						t.Fatalf("%s n=%d nb=%d: tile (%d,%d) differs from Seq at %d",
							s.name, n, nb, i/ref.NT, i%ref.NT, x)
					}
				}
			}
		}
	}
}

func TestNotSPDPropagates(t *testing.T) {
	d := tile.NewDense(16)
	for i := 0; i < 16; i++ {
		d.Set(i, i, -1)
	}
	if err := Seq(tile.FromDense(d, 4)); err == nil {
		t.Fatal("Seq accepted an indefinite matrix")
	}
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	if err := Kaapi(rt, tile.FromDense(d, 4)); err == nil {
		t.Fatal("Kaapi accepted an indefinite matrix")
	}
	if err := Static(2, tile.FromDense(d, 4)); err == nil {
		t.Fatal("Static accepted an indefinite matrix")
	}
}

func TestGflops(t *testing.T) {
	g := Gflops(1000, time.Second)
	if g < 0.3 || g > 0.4 { // 1e9/3 flops in 1s ≈ 0.333 GFlop/s
		t.Fatalf("Gflops=%g want ~0.333", g)
	}
	if Gflops(100, 0) != 0 {
		t.Fatal("zero duration must give 0")
	}
}
