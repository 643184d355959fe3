// Package blas implements the float64 kernel subset needed by the dense and
// sparse Cholesky factorizations of this module: gemm, syrk, trsm and potrf,
// in the exact variants the PLASMA tile algorithm uses (lower-triangular).
// Matrices are row-major with an explicit leading dimension, so the same
// kernels run on full matrices, tiles, and padded skyline blocks.
//
// # The micro-kernels
//
// The four level-3 kernels are built on two blocks. The first, kern, runs
// on every machine: an 8×4 block of C minus the dot products of eight rows
// of A with four rows of B. Each element of A it loads feeds four products
// and each of B eight, so a multiply-add costs 0.375 loads. The NT layout
// makes both operands k-contiguous, so the block runs along k over plain
// slices and nothing is packed or copied. GemmNT cuts C into micro-blocks;
// SyrkLN cuts C the same way below the diagonal and sends the two
// micro-blocks per eight rows that the diagonal crosses through a scratch
// block, so it never writes j > i; TrsmRLTN eliminates the solved columns
// from each 4-column panel with GemmNT and finishes the panel with a
// 4-wide triangular solve per row; PotrfLower is left-looking over 8-column
// blocks, which puts nearly all of its flops into the other three.
//
// Every element of a micro-block is +0 plus its k products in k order,
// subtracted from C once. kern exists twice: in portable Go (kernGo,
// kernel.go), which rounds each product before adding it and is kern on
// every GOARCH but amd64 (kernel_generic.go) and on an amd64 CPU without
// FMA; and in FMA assembly (kernel_amd64.s), which fuses each multiply
// with its add, s = math.FMA(a, b, s), and is kern on an amd64 CPU with
// FMA. So on an FMA CPU the bits are those of the fused chain, and
// elsewhere kernGo's (TestKernBitwise checks kern against the one that
// applies, NaN, ±Inf, ±0 and subnormals included). The choice is made once,
// at package init, from CPUID and XGETBV (kernel_amd64.go). The assembly
// holds the 32 sums as one 256-bit register per row of A and transposes
// each 4×4 block of B it loads once for all eight rows, so eight
// independent FMA chains hide the instruction's latency. Across GOARCHes
// and CPUs no bits are promised: on arm64, ppc64 and s390x the Go compiler
// may fuse a multiply and an add too. The GOARCH and the CPU are the only
// selection — there is no option, flag, build tag or environment variable
// — so within one process every caller of a kernel gets bitwise-identical
// results for identical inputs, whichever scheduler made the call.
//
// # The panel path
//
// On an amd64 CPU with AVX-512 (decided at init like FMA, and only where
// FMA is used too) all four kernels run most of their flops through the
// second block, kernPanel: 8 rows of A against a panel of 16 columns
// packed k-major, 16 sums in 512-bit registers. Per k-step it loads one
// 16-wide row of the panel and fuses it, times each of A's eight elements
// broadcast once, into two sums per row: four times kern's products per
// load of A, and no shuffle. A panel holds k ≤ 256 rows, a 32 KB buffer
// that one call of a kernel packs into and reuses. Each element is the
// same fused chain as kernFMA's, so for GemmNT and SyrkLN the panel path
// moves no bit.
//
//   - GemmNT packs each 16 rows of B once and runs the block over every
//     8-row block of A.
//   - SyrkLN does the same for each 16 columns: the two 8-row blocks the
//     diagonal crosses go through a scratch block in store mode (C = A·P
//     instead of C -= A·P), and only their j ≤ i part into C.
//   - TrsmRLTN solves 16 columns J at a time: per 8-row block, one call
//     eliminates the solved columns, B[:,J] -= B[:,:J0]·L[J,:J0]ᵀ, and a
//     second, in store mode, multiplies the block by U = L[J,J]⁻ᵀ, found
//     once per J. Its bits differ from those of the 4-column solve.
//   - PotrfLower above n = 64 goes over 16-column blocks, so its updates
//     and its solves run on the block too, and factors each 16×16
//     diagonal block at width 8.
//
// What the panel path leaves runs on kern as before: a trailing 8- or
// 4-column block of GemmNT and SyrkLN, every call with k > 256, TrsmRLTN
// with fewer than 32 rows, whose solve would not repay finding U, and
// PotrfLower up to n = 64.
//
// What a micro-block does not cover takes a scalar dot-product path: the
// m%8 last rows and n%4 last columns of GemmNT, the rows of SyrkLN short of
// a full 8-row band, the n%4 last columns of TrsmRLTN, and the diagonal
// blocks of at most 8 rows PotrfLower factors entry by entry. With tile
// sizes that are multiples of 8, those diagonal blocks and the 4-wide
// solves of TrsmRLTN's 16×16 inverses are the only work outside the
// micro-kernels.
//
// Each kernel has a naive reference twin in ref.go, the oracle of the tests.
package blas

import (
	"errors"
	"math"
)

// ErrNotSPD is returned by PotrfLower when a non-positive pivot appears,
// i.e. the input is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("blas: matrix is not positive definite")

// GemmNT computes C -= A * Bᵀ, where A is m×k (lda), B is n×k (ldb) and C is
// m×n (ldc). This is the Schur-complement update of the tile Cholesky:
// C(m,n) -= A(m,k) · B(n,k)ᵀ.
func GemmNT(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	// The last element of each operand is indexed first, so a short one
	// panics here, before any block has written C. (A reslice would be
	// checked against capacity and let a short operand grow into it.)
	_, _, _ = a[(m-1)*lda+k-1], b[(n-1)*ldb+k-1], c[(m-1)*ldc+n-1]
	gemm(m, n, k, a, lda, b, ldb, c, ldc, nil)
}

// gemm is GemmNT past its checks; with k = 0 it leaves C as it is. p is
// the panel path's buffer, or nil for one of gemm's own when the path
// applies.
func gemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, p *panel) {
	if k == 0 {
		return
	}
	mm, nn := m-m%mr, n-n%nr
	// The columns left of j0 go by panels where the panel path applies.
	j0 := 0
	if usePanels(mm, n, k) {
		if p == nil {
			p = new(panel)
		}
		j0 = n - n%panelN
		for j := 0; j < j0; j += panelN {
			packPanel(k, b[j*ldb:], ldb, p)
			panelRows(0, mm, k, a, lda, p, c[j:], ldc)
		}
	}
	for i := 0; i < mm; i += mr {
		for j := j0; j < nn; j += nr {
			kern(k, a[i*lda:], lda, b[j*ldb:], ldb, c[i*ldc+j:], ldc)
		}
	}
	// The n%nr columns right of the micro-blocks, then the m%mr rows below.
	for i := 0; i < m; i++ {
		j := nn
		if i >= mm {
			j = 0
		}
		ar := a[i*lda : i*lda+k]
		for ; j < n; j++ {
			c[i*ldc+j] -= dot(ar, b[j*ldb:j*ldb+k])
		}
	}
}

// SyrkLN computes the lower triangle of C -= A * Aᵀ, where A is n×k (lda)
// and C is n×n (ldc). Only entries C[i][j] with j <= i are touched.
func SyrkLN(n, k int, a []float64, lda int, c []float64, ldc int) {
	if n <= 0 || k <= 0 {
		return
	}
	_, _ = a[(n-1)*lda+k-1], c[(n-1)*ldc+n-1] // as in GemmNT
	syrk(n, k, a, lda, c, ldc, nil)
}

// syrk is SyrkLN past its checks, k and p as in gemm.
func syrk(n, k int, a []float64, lda int, c []float64, ldc int, p *panel) {
	if k == 0 {
		return
	}
	// The columns left of j0 in the full bands of mr rows go by panels
	// where the panel path applies: each panel's 16 diagonal rows through
	// a scratch block, only their j <= i part into C, and the rows below
	// straight into C.
	nb := n - n%mr
	j0 := 0
	if usePanels(nb, nb, k) {
		if p == nil {
			p = new(panel)
		}
		j0 = nb - nb%panelN
		var t [mr * panelN]float64
		for j := 0; j < j0; j += panelN {
			packPanel(k, a[j*lda:], lda, p)
			for i := j; i < j+panelN; i += mr {
				kernPanel(k, a[i*lda:], lda, p[:], t[:], panelN, true)
				for r := range mr {
					cr := c[(i+r)*ldc+j : (i+r)*ldc+i+r+1]
					for jj := range cr {
						cr[jj] -= t[r*panelN+jj]
					}
				}
			}
			panelRows(j+panelN, nb, k, a, lda, p, c[j:], ldc)
		}
	}
	for i := 0; i < n; i += mr {
		j := 0
		if i+mr <= n {
			j = min(j0, i+mr)
			// Micro-blocks wholly on or below the diagonal: j+nr-1 <= i.
			for ; j+nr <= i+1; j += nr {
				kern(k, a[i*lda:], lda, a[j*lda:], lda, c[i*ldc+j:], ldc)
			}
			// The mr/nr micro-blocks the diagonal crosses go through a
			// zeroed scratch block, and only their j <= i part into C; a
			// block's rows above j-i lie wholly right of the diagonal.
			for ; j < i+mr; j += nr {
				var t [mr * nr]float64
				kern(k, a[i*lda:], lda, a[j*lda:], lda, t[:], nr)
				for r := j - i; r < mr; r++ {
					cr := c[(i+r)*ldc+j : (i+r)*ldc+min(j+nr, i+r+1)]
					for jj := range cr {
						cr[jj] += t[r*nr+jj]
					}
				}
			}
		}
		// Rows and columns too few for a micro-block, entry by entry.
		for r := i; r < min(i+mr, n); r++ {
			ar := a[r*lda : r*lda+k]
			for jj := j; jj <= r; jj++ {
				c[r*ldc+jj] -= dot(ar, a[jj*lda:jj*lda+k])
			}
		}
	}
}

// usePanels says whether the panel path takes an m×n region of C at depth
// k: where the CPU has AVX-512, the region holds at least one block of mr
// rows and panelN columns, and a packed panel fits its buffer.
func usePanels(m, n, k int) bool {
	return useAVX512 && m >= mr && n >= panelN && k <= panelK
}

// panelRows runs rows i0…i1-1 (i1-i0 a multiple of mr) of one panel
// column through kernPanel, C -= A · Bᵀ with B packed in p.
func panelRows(i0, i1, k int, a []float64, lda int, p *panel, c []float64, ldc int) {
	for i := i0; i < i1; i += mr {
		kernPanel(k, a[i*lda:], lda, p[:], c[i*ldc:], ldc, false)
	}
}

// TrsmRLTN solves X · Lᵀ = B in place (B := B · L⁻ᵀ), where L is an n×n
// (ldl) lower-triangular non-unit matrix and B is m×n (ldb). This is the
// panel solve applied to every tile below a factored diagonal tile.
func TrsmRLTN(m, n int, l []float64, ldl int, b []float64, ldb int) {
	if m <= 0 || n <= 0 {
		return
	}
	_, _ = l[(n-1)*ldl+n-1], b[(m-1)*ldb+n-1] // as in GemmNT
	trsm(m, n, l, ldl, b, ldb, nil)
}

// trsm is TrsmRLTN past its checks, p as in gemm.
//
// Where the panel path applies, the full bands of mr rows are solved
// panelN columns J at a time, each row block in two kernPanel calls: the
// solved columns left of J are eliminated, B[:,J] -= B[:,:J0] · L[J,:J0]ᵀ,
// with L[J,:J0] packed once per J, and then B[:,J] := B[:,J] · U, stored
// over B[:,J], where U = L[J,J]⁻ᵀ is the identity solved by trsmNR. The
// rows below the bands, and the columns the panels leave, are solved by
// trsmNR. Finding U costs about what solving
// panelN rows by trsmNR does, so the panel path starts at twice that.
func trsm(m, n int, l []float64, ldl int, b []float64, ldb int, p *panel) {
	j0 := 0
	if mm := m - m%mr; mm >= 2*panelN && usePanels(mm, n, n) {
		if p == nil {
			p = new(panel)
		}
		j0 = n - n%panelN
		var u [panelN * panelN]float64
		for j := 0; j < j0; j += panelN {
			if j > 0 {
				packPanel(j, l[j*ldl:], ldl, p)
			}
			clear(u[:])
			for t := range panelN {
				u[t*panelN+t] = 1
			}
			trsmNR(panelN, panelN, 0, l[j*ldl+j:], ldl, u[:], panelN)
			for i := 0; i < mm; i += mr {
				bi := b[i*ldb:]
				if j > 0 {
					kernPanel(j, bi, ldb, p[:], bi[j:], ldb, false)
				}
				kernPanel(panelN, bi[j:], ldb, u[:], bi[j:], ldb, true)
			}
		}
		if mm < m {
			trsmNR(m-mm, j0, 0, l, ldl, b[mm*ldb:], ldb)
		}
	}
	trsmNR(m, n, j0, l, ldl, b, ldb)
}

// trsmNR solves columns j0… of TrsmRLTN's B, the columns left of j0
// solved already, nr at a time: the solved columns left of the panel are
// eliminated from it by one GemmNT, which leaves an nr-wide triangular
// solve per row. Pivots divide once per column and multiply per row.
func trsmNR(m, n, j0 int, l []float64, ldl int, b []float64, ldb int) {
	for ; j0 < n; j0 += nr {
		jb := min(nr, n-j0)
		gemm(m, jb, j0, b, ldb, l[j0*ldl:], ldl, b[j0:], ldb, nil)
		lp := l[j0*ldl+j0:]
		if jb < nr {
			trsmRagged(m, jb, lp, ldl, b[j0:], ldb)
			return
		}
		l10 := lp[ldl]
		l20, l21 := lp[2*ldl], lp[2*ldl+1]
		l30, l31, l32 := lp[3*ldl], lp[3*ldl+1], lp[3*ldl+2]
		d0, d1, d2, d3 := 1/lp[0], 1/lp[ldl+1], 1/lp[2*ldl+2], 1/lp[3*ldl+3]
		for i := 0; i < m; i++ {
			br := b[i*ldb+j0 : i*ldb+j0+nr]
			x0 := br[0] * d0
			x1 := (br[1] - x0*l10) * d1
			x2 := (br[2] - x0*l20 - x1*l21) * d2
			x3 := (br[3] - x0*l30 - x1*l31 - x2*l32) * d3
			br[0], br[1], br[2], br[3] = x0, x1, x2, x3
		}
	}
}

// trsmRagged is trsmNR's last panel when n%nr columns remain: the same
// per-row triangular solve with the width a variable.
func trsmRagged(m, n int, l []float64, ldl int, b []float64, ldb int) {
	var inv [nr]float64
	for j := 0; j < n; j++ {
		inv[j] = 1 / l[j*ldl+j]
	}
	for i := 0; i < m; i++ {
		br := b[i*ldb : i*ldb+n]
		for j := range br {
			s := br[j]
			for t, lv := range l[j*ldl : j*ldl+j] {
				s -= br[t] * lv
			}
			br[j] = s * inv[j]
		}
	}
}

// PotrfLower factors the n×n (lda) matrix in place as A = L·Lᵀ, storing L in
// the lower triangle. The strict upper triangle is left untouched.
func PotrfLower(n int, a []float64, lda int) error {
	if n <= 0 {
		return nil
	}
	_ = a[(n-1)*lda+n-1] // as in GemmNT
	if n > 4*panelN && usePanels(n, n, n) {
		return potrf(n, a, lda, panelN, new(panel))
	}
	return potrf(n, a, lda, mr, nil)
}

// potrf is PotrfLower left-looking over column blocks J of width nb:
// update the diagonal block with the columns already factored
// (A[J,J] -= A[J,:J0] · A[J,:J0]ᵀ, syrk), factor it, then update and solve
// the panel below it (gemm, trsm), all on one panel buffer p. Where the
// panel path applies and n is past 4·panelN, nb is panelN, so the updates
// and the solve run on kernPanel, and each diagonal block is factored by
// potrf again at width mr; elsewhere nb is mr, one micro-block of rows,
// and the diagonal blocks are factored entry by entry. Either way nearly
// all of the flops land in the other three kernels. Measured against each
// other, width mr is 25 % faster at n = 32, the two tie at 64, and
// panelN is 27 % faster at 128.
func potrf(n int, a []float64, lda, nb int, p *panel) error {
	for j0 := 0; j0 < n; j0 += nb {
		jb := min(nb, n-j0)
		left, diag := a[j0*lda:], a[j0*lda+j0:]
		syrk(jb, j0, left, lda, diag, lda, p)
		var err error
		if jb > mr {
			err = potrf(jb, diag, lda, mr, nil)
		} else {
			err = potrfUnblocked(jb, diag, lda)
		}
		if err != nil {
			return err
		}
		if j1 := j0 + jb; j1 < n {
			below := a[j1*lda+j0:]
			gemm(n-j1, jb, j0, a[j1*lda:], lda, left, lda, below, lda, p)
			trsm(n-j1, jb, diag, lda, below, lda, p)
		}
	}
	return nil
}

// potrfUnblocked is the entry-by-entry factorization of one diagonal
// block of at most mr rows, right-looking: each column is scaled by
// its pivot and then taken from the rows right of it, each row as one
// run of independent multiply-adds, with the column copied out so that
// the run reads it contiguously.
func potrfUnblocked(n int, a []float64, lda int) error {
	var col [mr]float64
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			a[i*lda+j] *= inv
			col[i] = a[i*lda+j]
		}
		for i := j + 1; i < n; i++ {
			ri, x := a[i*lda+j+1:i*lda+i+1], col[i]
			for t, y := range col[j+1 : i+1] {
				ri[t] -= x * y
			}
		}
	}
	return nil
}

// TrsvLowerNoTrans solves L·x = b in place (b := L⁻¹·b) for the n×n (lda)
// lower-triangular non-unit matrix L. Used by the skyline solver.
func TrsvLowerNoTrans(n int, l []float64, lda int, b []float64) {
	for i := 0; i < n; i++ {
		s := b[i]
		lr := l[i*lda : i*lda+i]
		for t := 0; t < i; t++ {
			s -= lr[t] * b[t]
		}
		b[i] = s / l[i*lda+i]
	}
}

// TrsvLowerTrans solves Lᵀ·x = b in place (b := L⁻ᵀ·b).
func TrsvLowerTrans(n int, l []float64, lda int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		s := b[i] / l[i*lda+i]
		b[i] = s
		for t := 0; t < i; t++ {
			b[t] -= l[i*lda+t] * s
		}
	}
}

// GemvSub computes y -= A · x for the m×n (lda) matrix A.
func GemvSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		ar := a[i*lda : i*lda+n]
		var s float64
		for j := 0; j < n; j++ {
			s += ar[j] * x[j]
		}
		y[i] -= s
	}
}

// GemvTransSub computes y -= Aᵀ · x for the m×n (lda) matrix A
// (so y has length n and x length m).
func GemvTransSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		ar := a[i*lda : i*lda+n]
		xi := x[i]
		for j := 0; j < n; j++ {
			y[j] -= ar[j] * xi
		}
	}
}
