// Package tile provides dense symmetric matrices in the tile layout PLASMA
// uses: the matrix is cut into NB×NB tiles, each stored contiguously, so one
// task touches one (or a few) contiguous memory blocks. Ragged right/bottom
// edges are supported, so any matrix order works with any tile size (the
// paper's Fig. 2 uses N up to a few thousands with NB 128 and 224).
package tile

import (
	"math"

	"xkaapi/internal/xrand"
)

// Dense is a row-major n×n matrix.
type Dense struct {
	N int
	A []float64
}

// NewDense allocates a zero n×n matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At returns A[i][j].
func (d *Dense) At(i, j int) float64 { return d.A[i*d.N+j] }

// Set assigns A[i][j].
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.N+j] = v }

// NewSPD builds a deterministic pseudo-random symmetric positive definite
// matrix: symmetric entries in [-1, 1] with the diagonal shifted by n,
// which makes it strictly diagonally dominant and hence SPD.
func NewSPD(n int, seed uint64) *Dense {
	d := NewDense(n)
	rng := xrand.New(seed | 1)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := float64(rng.Next()%2000)/1000 - 1
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
		d.Set(i, i, d.At(i, i)+float64(n))
	}
	return d
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.N)
	copy(c.A, d.A)
	return c
}

// Tiled is a symmetric matrix in tile layout. Only the lower triangle of
// tiles is allocated (tile (i,j) with j <= i); the strict upper tiles are
// nil. Each tile is stored row-major with leading dimension NB; edge tiles
// use the top-left Rows(i)×Rows(j) sub-block.
type Tiled struct {
	N  int // matrix order
	NB int // tile size
	NT int // number of tile rows/columns: ceil(N/NB)
	T  [][]float64
}

// NewTiled allocates a zero tiled matrix of order n with tile size nb. The
// tiles are carved from one allocation, each capped at its own NB×NB
// elements.
func NewTiled(n, nb int) *Tiled {
	nt := (n + nb - 1) / nb
	t := &Tiled{N: n, NB: nb, NT: nt, T: make([][]float64, nt*nt)}
	sz := nb * nb
	buf := make([]float64, nt*(nt+1)/2*sz)
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			t.T[i*nt+j], buf = buf[:sz:sz], buf[sz:]
		}
	}
	return t
}

// Rows returns the live dimension of tile row/column i.
func (t *Tiled) Rows(i int) int {
	if i == t.NT-1 {
		return t.N - i*t.NB
	}
	return t.NB
}

// Tile returns tile (i,j), j <= i.
func (t *Tiled) Tile(i, j int) []float64 { return t.T[i*t.NT+j] }

// eachRow calls f once per stored row of every tile with the row's elements
// in the tile and the same elements in d: whole rows of the tiles below the
// diagonal, the entries up to the diagonal of the tiles on it.
func (t *Tiled) eachRow(d *Dense, f func(tileRow, denseRow []float64)) {
	nb := t.NB
	for bi := 0; bi < t.NT; bi++ {
		for bj := 0; bj <= bi; bj++ {
			tb := t.Tile(bi, bj)
			for i := 0; i < t.Rows(bi); i++ {
				gi, gj := bi*nb+i, bj*nb
				w := min(t.Rows(bj), gi-gj+1)
				f(tb[i*nb:i*nb+w], d.A[gi*d.N+gj:gi*d.N+gj+w])
			}
		}
	}
}

// FromDense packs the lower triangle (incl. diagonal) of d into tiles. The
// strict upper triangle of the diagonal tiles stays zero.
func FromDense(d *Dense, nb int) *Tiled {
	t := NewTiled(d.N, nb)
	t.eachRow(d, func(tileRow, denseRow []float64) { copy(tileRow, denseRow) })
	return t
}

// ToDense unpacks the lower triangle into a dense matrix (upper left zero).
func (t *Tiled) ToDense() *Dense {
	d := NewDense(t.N)
	t.eachRow(d, func(tileRow, denseRow []float64) { copy(denseRow, tileRow) })
	return d
}

// Clone deep-copies the tiled matrix.
func (t *Tiled) Clone() *Tiled {
	c := NewTiled(t.N, t.NB)
	for i, tb := range t.T {
		if tb != nil {
			copy(c.T[i], tb)
		}
	}
	return c
}

// CholeskyResidual measures ‖A − L·Lᵀ‖_F / ‖A‖_F, where orig holds A and
// fact holds the factor L in its lower triangle (tile layout). It is O(n³)
// and meant for test-sized matrices.
func CholeskyResidual(orig *Dense, fact *Tiled) float64 {
	n := orig.N
	l := fact.ToDense()
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			m := j
			if i < j {
				m = i
			}
			for k := 0; k <= m; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			r := orig.At(i, j) - s
			num += r * r
			a := orig.At(i, j)
			den += a * a
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
