package blas

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xkaapi/internal/xrand"
)

// Every size up to one past two micro-blocks, then sizes around the
// multiples of 4 the tile and skyline block sizes are.
var ragged = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33, 88, 127, 128}

// pad is what the leading dimensions exceed the live width by. It is odd so
// that rows start at every alignment.
const pad = 3

// Values for the elements a kernel must leave alone: the padding between
// the live width and the leading dimension, and the strict upper triangle
// of a lower-triangular operand. In a read-only operand they are NaN, so a
// kernel that reads one poisons its result. In an operand the kernel
// updates they are guard: NaN would hide a read-modify-write (NaN - x is
// the same NaN), while guard changes under one and throws any result it is
// read into far out of tolerance.
const guard = 12345.678

// padded returns a rows×cols matrix of values in [-1, 1] at leading
// dimension cols+pad, with its padding set to off.
func padded(rng *xrand.Rand, rows, cols int, off float64) ([]float64, int) {
	ld := cols + pad
	a := randMat(rng, rows*ld)
	for i := 0; i < rows; i++ {
		for j := cols; j < ld; j++ {
			a[i*ld+j] = off
		}
	}
	return a, ld
}

// setUpper overwrites the strict upper triangle of an n×n matrix with off.
func setUpper(a []float64, n, ld int, off float64) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*ld+j] = off
		}
	}
}

// agree fails unless got matches want: bitwise where want is guard, to tol
// elsewhere.
func agree(t *testing.T, got, want []float64, tol float64, what string, dims ...int) {
	t.Helper()
	what = fmt.Sprint(what, dims)
	for i := range want {
		if want[i] == guard {
			if got[i] != guard {
				t.Fatalf("%s: element %d is outside the result and was written (now %g)", what, i, got[i])
			}
		} else if !(math.Abs(got[i]-want[i]) <= tol) {
			t.Fatalf("%s: element %d is %g, reference has %g", what, i, got[i], want[i])
		}
	}
}

func TestGemmNTAgainstReference(t *testing.T) {
	rng := xrand.New(1)
	for _, m := range ragged {
		for _, n := range ragged {
			for _, k := range ragged {
				a, lda := padded(&rng, m, k, math.NaN())
				b, ldb := padded(&rng, n, k, math.NaN())
				c, ldc := padded(&rng, m, n, guard)
				want := slices.Clone(c)
				GemmNT(m, n, k, a, lda, b, ldb, c, ldc)
				RefGemmNT(m, n, k, a, lda, b, ldb, want, ldc)
				agree(t, c, want, 1e-12, "gemm m,n,k=", m, n, k)
			}
		}
	}
}

func TestSyrkLNAgainstReference(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range ragged {
		for _, k := range ragged {
			a, lda := padded(&rng, n, k, math.NaN())
			c, ldc := padded(&rng, n, n, guard)
			setUpper(c, n, ldc, guard)
			want := slices.Clone(c)
			SyrkLN(n, k, a, lda, c, ldc)
			RefSyrkLN(n, k, a, lda, want, ldc)
			agree(t, c, want, 1e-12, "syrk n,k=", n, k)
		}
	}
}

func TestTrsmRLTNAgainstReference(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range ragged {
		ldl := n + pad
		l := randSPD(&rng, n, ldl)
		if err := RefPotrfLower(n, l, ldl); err != nil {
			t.Fatal(err)
		}
		setUpper(l, n, ldl, math.NaN())
		for _, m := range ragged {
			b, ldb := padded(&rng, m, n, guard)
			want := slices.Clone(b)
			TrsmRLTN(m, n, l, ldl, b, ldb)
			RefTrsmRLTN(m, n, l, ldl, want, ldb)
			agree(t, b, want, 1e-11, "trsm m,n=", m, n)
		}
	}
}

func TestPotrfLowerAgainstReference(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range ragged {
		lda := n + pad
		a := randSPD(&rng, n, lda)
		setUpper(a, n, lda, guard)
		want := slices.Clone(a)
		if err := PotrfLower(n, a, lda); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := RefPotrfLower(n, want, lda); err != nil {
			t.Fatal(err)
		}
		agree(t, a, want, 1e-11, "potrf n=", n)
	}
}

// A bad pivot must be reported wherever it falls: in the first diagonal
// block, in a later one (where it arrives through the syrk update), and as
// a NaN anywhere in the lower triangle.
func TestPotrfLowerRejects(t *testing.T) {
	const n = 40
	spoil := map[string]func(a []float64){
		"negative first pivot": func(a []float64) { a[0] = -a[0] },
		"negative late pivot":  func(a []float64) { a[37*n+37] = -a[37*n+37] },
		"zero late pivot":      func(a []float64) { clear(a[38*n : 38*n+39]) },
		"NaN on the diagonal":  func(a []float64) { a[21*n+21] = math.NaN() },
		"NaN below it":         func(a []float64) { a[30*n+2] = math.NaN() },
	}
	if err := PotrfLower(2, []float64{1, 0, 0, -1}, 2); err != ErrNotSPD {
		t.Errorf("diag(1, -1): err=%v, want ErrNotSPD", err)
	}
	for name, f := range spoil {
		rng := xrand.New(11)
		a := randSPD(&rng, n, n)
		f(a)
		if err := PotrfLower(n, a, n); err != ErrNotSPD {
			t.Errorf("%s: err=%v, want ErrNotSPD", name, err)
		}
	}
}

// The benchmark of record compares the checksum of a dataflow factor with
// the sequential one's, so a kernel must be a function of its inputs alone.
func TestKernelsDeterministic(t *testing.T) {
	const n, k = 33, 127
	run := func() [4][]float64 {
		rng := xrand.New(13)
		a, b := randMat(&rng, n*k), randMat(&rng, n*k)
		gemm, syrk, trsm := randMat(&rng, n*n), randMat(&rng, n*n), randMat(&rng, n*n)
		potrf := randSPD(&rng, n, n)
		GemmNT(n, n, k, a, k, b, k, gemm, n)
		SyrkLN(n, k, a, k, syrk, n)
		if err := PotrfLower(n, potrf, n); err != nil {
			t.Fatal(err)
		}
		TrsmRLTN(n, n, potrf, n, trsm, n)
		return [4][]float64{gemm, syrk, trsm, potrf}
	}
	first, second := run(), run()
	for i, name := range []string{"gemm", "syrk", "trsm", "potrf"} {
		for j := range first[i] {
			if math.Float64bits(first[i][j]) != math.Float64bits(second[i][j]) {
				t.Fatalf("%s: element %d differs between two runs on one input", name, j)
			}
		}
	}
}
