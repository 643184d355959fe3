// Package blas implements the float64 kernel subset needed by the dense and
// sparse Cholesky factorizations of this module: gemm, syrk, trsm and potrf,
// in the exact variants the PLASMA tile algorithm uses (lower-triangular).
// Matrices are row-major with an explicit leading dimension, so the same
// kernels run on full matrices, tiles, and padded skyline blocks.
//
// # The micro-kernel
//
// All four level-3 kernels are built on one micro-kernel, kern: an 8×4
// block of C minus the dot products of eight rows of A with four rows of
// B. Each element of A it loads feeds four products and each of B eight,
// so a multiply-add costs 0.375 loads. The NT layout makes both operands
// k-contiguous, so the block runs along k over plain slices and nothing is
// packed or copied. GemmNT cuts C into micro-blocks; SyrkLN cuts C the same
// way below the diagonal and sends the two micro-blocks per eight rows
// that the diagonal crosses through a scratch block, so it never writes
// j > i; TrsmRLTN eliminates the solved columns from each 4-column panel
// with GemmNT and finishes the panel with a 4-wide triangular solve per
// row; PotrfLower is left-looking over 8-column blocks, which puts nearly
// all of its flops into the other three.
//
// Every element of a micro-block is +0 plus its k products in k order,
// subtracted from C once. The micro-kernel exists twice: in portable Go
// (kernGo, kernel.go), which rounds each product before adding it and is
// kern on every GOARCH but amd64 (kernel_generic.go) and on an amd64 CPU
// without FMA; and in FMA assembly (kernel_amd64.s), which fuses each
// multiply with its add, s = math.FMA(a, b, s), and is kern on an amd64 CPU
// with FMA. So on an FMA CPU the bits are those of the fused chain, and
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
// FMA is used too) GemmNT and SyrkLN take a second block for most of C: an
// 8×8 block, kernPanel, over B packed into k-major panels. GemmNT packs
// each 8-row panel of B once into a 16 KB stack buffer (so k ≤ 256) and
// runs the block over every 8-row block of A; SyrkLN does the same for its
// blocks wholly below the diagonal. Per k-step the block loads one 8-wide
// row of the panel and fuses it, times each of A's eight elements
// broadcast from memory, into one 512-bit sum per row of A: twice kern's
// products per load and no shuffle. Each element is the same fused chain
// as kernFMA's, so the panel path moves no bit: GemmNT, SyrkLN and the
// Cholesky give the same results with it as without it. What it leaves —
// a trailing n%8 = 4 column block, the blocks the diagonal crosses and
// every call with k > 256 — runs on kern as before.
//
// What a micro-block does not cover takes a scalar dot-product path: the
// m%8 last rows and n%4 last columns of GemmNT, the rows of SyrkLN short of
// a full 8-row band, the n%4 last columns of TrsmRLTN, and the 8×8 diagonal
// blocks PotrfLower factors entry by entry. With tile sizes that are
// multiples of 8, those diagonal blocks are the only work outside the
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
	mm, nn := m-m%mr, n-n%nr
	// The columns left of j0 go by panels where the panel path applies.
	j0 := 0
	if usePanels(mm, n, k) {
		j0 = n - n%panelN
		gemmPanels(mm, j0, k, a, lda, b, ldb, c, ldc, false)
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
	// The blocks wholly below the diagonal, columns 0…i-1 of each full
	// band i after the first, go by panels where the panel path applies.
	nb := n - n%mr
	panels := usePanels(nb-mr, nb-mr, k)
	if panels {
		gemmPanels(nb, nb-mr, k, a, lda, a, lda, c, ldc, true)
	}
	for i := 0; i < n; i += mr {
		j := 0
		if i+mr <= n {
			if panels {
				j = i
			}
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

// usePanels says whether GemmNT's or SyrkLN's panel path takes an m×n
// region of C at depth k: where the CPU has AVX-512, the region holds at
// least one 8×8 block, and a packed panel fits its buffer.
func usePanels(m, n, k int) bool {
	return useAVX512 && m >= mr && n >= panelN && k <= panelK
}

// gemmPanels is the panel path: C -= A · Bᵀ over an m×n region, m a
// multiple of mr and n of panelN, each panel of panelN rows of B packed
// once and run through kernPanel against every mr-row block of A. With
// lower, SyrkLN's case, panel j meets only the blocks of A below row
// j+panelN. The 16 KB panel buffer lives here, so callers that take no
// panel do not pay for clearing it.
func gemmPanels(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, lower bool) {
	var p [panelK * panelN]float64
	for j := 0; j < n; j += panelN {
		packPanel(k, b[j*ldb:], ldb, &p)
		i := 0
		if lower {
			i = j + panelN
		}
		for ; i < m; i += mr {
			kernPanel(k, a[i*lda:], lda, &p, c[i*ldc+j:], ldc)
		}
	}
}

// TrsmRLTN solves X · Lᵀ = B in place (B := B · L⁻ᵀ), where L is an n×n
// (ldl) lower-triangular non-unit matrix and B is m×n (ldb). This is the
// panel solve applied to every tile below a factored diagonal tile.
//
// Columns are solved nr at a time: the solved columns left of the panel are
// eliminated from it by one GemmNT, B[:,J] -= B[:,:J0] · L[J,:J0]ᵀ, which
// leaves an nr-wide triangular solve per row. Pivots divide once per column
// and multiply per row.
func TrsmRLTN(m, n int, l []float64, ldl int, b []float64, ldb int) {
	if m <= 0 || n <= 0 {
		return
	}
	_, _ = l[(n-1)*ldl+n-1], b[(m-1)*ldb+n-1] // as in GemmNT
	for j0 := 0; j0 < n; j0 += nr {
		jb := min(nr, n-j0)
		GemmNT(m, jb, j0, b, ldb, l[j0*ldl:], ldl, b[j0:], ldb)
		lp := l[j0*ldl+j0:]
		if jb < nr {
			trsmRagged(m, jb, lp, ldl, b[j0:], ldb)
			break
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

// trsmRagged is TrsmRLTN's last panel when n%nr columns remain: the same
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

// potrfNB is the block width of PotrfLower: one micro-block of rows, so
// nearly all of the flops land in GemmNT and TrsmRLTN and the scalar
// factorization of the diagonal blocks (n·potrfNB²/3 flops) stays well
// under one percent of them at n = 128. Measured against 16 and 32 on
// BenchmarkPotrfLower, 8 was the fastest.
const potrfNB = 8

// PotrfLower factors the n×n (lda) matrix in place as A = L·Lᵀ, storing L in
// the lower triangle. The strict upper triangle is left untouched.
//
// The algorithm is left-looking over column blocks J of width potrfNB:
// update the diagonal block with the columns already factored
// (A[J,J] -= A[J,:J0] · A[J,:J0]ᵀ, SyrkLN), factor it entry by entry, then
// update and solve the panel below it (GemmNT, TrsmRLTN).
func PotrfLower(n int, a []float64, lda int) error {
	if n <= 0 {
		return nil
	}
	_ = a[(n-1)*lda+n-1] // as in GemmNT
	for j0 := 0; j0 < n; j0 += potrfNB {
		jb := min(potrfNB, n-j0)
		left, diag := a[j0*lda:], a[j0*lda+j0:]
		SyrkLN(jb, j0, left, lda, diag, lda)
		if err := potrfUnblocked(jb, diag, lda); err != nil {
			return err
		}
		if j1 := j0 + jb; j1 < n {
			below := a[j1*lda+j0:]
			GemmNT(n-j1, jb, j0, a[j1*lda:], lda, left, lda, below, lda)
			TrsmRLTN(n-j1, jb, diag, lda, below, lda)
		}
	}
	return nil
}

// potrfUnblocked is the entry-by-entry left-looking factorization of one
// diagonal block.
func potrfUnblocked(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		jr := a[j*lda : j*lda+j]
		d := a[j*lda+j] - dot(jr, jr)
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			a[i*lda+j] = (a[i*lda+j] - dot(a[i*lda:i*lda+j], jr)) * inv
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
