package tile

import (
	"math"
	"testing"

	"xkaapi/internal/blas"
)

func TestNewSPDIsSymmetricDominant(t *testing.T) {
	d := NewSPD(30, 42)
	for i := 0; i < d.N; i++ {
		var off float64
		for j := 0; j < d.N; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
			if j != i {
				off += math.Abs(d.At(i, j))
			}
		}
		if d.At(i, i) <= off {
			t.Fatalf("row %d not diagonally dominant: %g <= %g", i, d.At(i, i), off)
		}
	}
}

func TestFromToDenseRoundTrip(t *testing.T) {
	for _, cfg := range [][2]int{{16, 4}, {17, 4}, {30, 8}, {5, 8}, {33, 32}} {
		n, nb := cfg[0], cfg[1]
		d := NewSPD(n, 7)
		tl := FromDense(d, nb)
		back := tl.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if back.At(i, j) != d.At(i, j) {
					t.Fatalf("n=%d nb=%d: round trip differs at (%d,%d)", n, nb, i, j)
				}
			}
		}
	}
}

// Every element of every tile, against the definition: the lower triangle
// of d where the tile covers it, zero everywhere else (the strict upper
// triangle of the diagonal tiles and the padding of the ragged edge, which
// the benchmark's tile checksum sums over).
func TestFromDenseLayout(t *testing.T) {
	for _, cfg := range [][2]int{{16, 4}, {17, 4}, {30, 8}, {5, 8}, {33, 32}} {
		n, nb := cfg[0], cfg[1]
		d := NewSPD(n, 7)
		tl := FromDense(d, nb)
		for bi := 0; bi < tl.NT; bi++ {
			for bj := 0; bj <= bi; bj++ {
				tb := tl.Tile(bi, bj)
				if len(tb) != nb*nb || cap(tb) != nb*nb {
					t.Fatalf("n=%d nb=%d: tile (%d,%d) has len %d cap %d, want both %d",
						n, nb, bi, bj, len(tb), cap(tb), nb*nb)
				}
				for i := 0; i < nb; i++ {
					for j := 0; j < nb; j++ {
						gi, gj := bi*nb+i, bj*nb+j
						want := 0.0
						if gi < n && gj <= gi {
							want = d.At(gi, gj)
						}
						if tb[i*nb+j] != want {
							t.Fatalf("n=%d nb=%d: tile (%d,%d) element (%d,%d) is %g, want %g",
								n, nb, bi, bj, i, j, tb[i*nb+j], want)
						}
					}
				}
			}
		}
	}
}

func TestRowsRaggedEdge(t *testing.T) {
	tl := NewTiled(10, 4)
	if tl.NT != 3 {
		t.Fatalf("NT=%d want 3", tl.NT)
	}
	if tl.Rows(0) != 4 || tl.Rows(1) != 4 || tl.Rows(2) != 2 {
		t.Fatalf("Rows = %d,%d,%d", tl.Rows(0), tl.Rows(1), tl.Rows(2))
	}
}

func TestUpperTilesNil(t *testing.T) {
	tl := NewTiled(16, 4)
	for i := 0; i < tl.NT; i++ {
		for j := 0; j < tl.NT; j++ {
			got := tl.T[i*tl.NT+j] != nil
			want := j <= i
			if got != want {
				t.Fatalf("tile (%d,%d) allocated=%v", i, j, got)
			}
		}
	}
}

func TestCholeskyResidualZeroForExactFactor(t *testing.T) {
	n, nb := 24, 8
	d := NewSPD(n, 3)
	tl := FromDense(d, nb)
	// Factor densely with the reference kernel, then repack.
	a := d.Clone()
	if err := blas.RefPotrfLower(n, a.A, n); err != nil {
		t.Fatal(err)
	}
	lt := FromDense(a, nb)
	if r := CholeskyResidual(d, lt); r > 1e-12 {
		t.Fatalf("residual %g for exact factor", r)
	}
	// And a corrupted factor must show a large residual.
	lt.Tile(1, 0)[0] += 10
	if r := CholeskyResidual(d, lt); r < 1e-6 {
		t.Fatalf("residual %g for corrupted factor", r)
	}
	_ = tl
}

func TestCloneIndependence(t *testing.T) {
	d := NewSPD(12, 5)
	tl := FromDense(d, 4)
	c := tl.Clone()
	c.Tile(0, 0)[0] = 999
	if tl.Tile(0, 0)[0] == 999 {
		t.Fatal("clone shares storage")
	}
	dc := d.Clone()
	dc.Set(0, 0, -1)
	if d.At(0, 0) == -1 {
		t.Fatal("dense clone shares storage")
	}
}
