//xk:hotpath — the micro-kernel is the inner loop of every tile task; xkvet
// keeps it free of locks and allocation.

package blas

// kern is the micro-kernel, C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
// (see kernGo), run by kernSSE2. It first takes the slices kernGo takes, so
// an operand too short for the block panics with kernGo's index error
// before any element is read or written.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0, a1 := a[:k], a[lda:lda+k]
	b0, b1, b2, b3 := b[:k], b[ldb:ldb+k], b[2*ldb:2*ldb+k], b[3*ldb:3*ldb+k]
	c0, c1 := c[:nr], c[ldc:ldc+nr]
	// With k = 0 kernGo subtracts +0 from C, which leaves every bit of it
	// as it was.
	if k > 0 {
		kernSSE2(k, &a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], &c0[0], &c1[0])
	}
}

// kernSSE2 is kernGo's loop and update on two-lane SSE2 registers, the
// amd64 baseline. Lane pair (s00, s01) is a0[t] broadcast times
// (b0[t], b1[t]), and so on for the other three pairs: every lane does the
// multiply and the add one line of kernGo does, with the sums taken in
// k order from +0, and C is updated with one subtraction per element.
// The results are therefore kernGo's, bit for bit. a0 and a1 point at the
// k elements of A's two rows, b0…b3 at B's four, c0 and c1 at C's two rows
// of nr; k must be positive.
//
//go:noescape
func kernSSE2(k int, a0, a1, b0, b1, b2, b3, c0, c1 *float64)
