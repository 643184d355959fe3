//xk:hotpath — the micro-kernel and the dot product are the inner loops of
// every tile task; xkvet keeps them free of locks and allocation.

package blas

// The micro-kernel's block of C: mr rows of A against nr rows of B.
const (
	mr = 2
	nr = 4
)

// kern is the micro-kernel all four level-3 kernels are built on:
//
//	C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
//
// with a, b and c starting at the block's first element. The mr·nr sums
// live in registers and each loaded element of A feeds nr products, each of
// B mr, so a multiply-add costs 0.75 loads where a row-by-row dot product
// pays 2.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0, a1 := a[:k], a[lda:lda+k]
	b0, b1, b2, b3 := b[:k], b[ldb:ldb+k], b[2*ldb:2*ldb+k], b[3*ldb:3*ldb+k]
	var s00, s01, s02, s03, s10, s11, s12, s13 float64
	for t, x0 := range a0 {
		x1 := a1[t]
		y0, y1, y2, y3 := b0[t], b1[t], b2[t], b3[t]
		s00 += x0 * y0
		s01 += x0 * y1
		s02 += x0 * y2
		s03 += x0 * y3
		s10 += x1 * y0
		s11 += x1 * y1
		s12 += x1 * y2
		s13 += x1 * y3
	}
	c0, c1 := c[:nr], c[ldc:ldc+nr]
	c0[0] -= s00
	c0[1] -= s01
	c0[2] -= s02
	c0[3] -= s03
	c1[0] -= s10
	c1[1] -= s11
	c1[2] -= s12
	c1[3] -= s13
}

// dot is the scalar path for what the micro-kernel does not cover: the
// m%mr rows and n%nr columns of ragged blocks and the in-block triangles.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(x); t += 4 {
		s0 += x[t] * y[t]
		s1 += x[t+1] * y[t+1]
		s2 += x[t+2] * y[t+2]
		s3 += x[t+3] * y[t+3]
	}
	s := s0 + s1 + s2 + s3
	for ; t < len(x); t++ {
		s += x[t] * y[t]
	}
	return s
}
