//xk:hotpath — the micro-kernel and the dot product are the inner loops of
// every tile task; xkvet keeps them free of locks and allocation.

package blas

// The micro-kernel's block of C: mr rows of A against nr rows of B. The
// panel path's block is mr rows of A against panelN rows of B, packed for
// k up to panelK into a panel.
const (
	mr     = 8
	nr     = 4
	panelN = 16
	panelK = 256
)

// panel is the panel path's buffer, 32 KB: k rows of panelN.
type panel [panelK * panelN]float64

// kernGo is the micro-kernel all four level-3 kernels are built on, in
// portable Go:
//
//	C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
//
// with a, b and c starting at the block's first element. It runs as four
// 2×4 quarters, rows 0–1, 2–3, 4–5 and 6–7 (kern2x4), whose eight sums fit
// in registers; every element's sum is taken in k order from +0, each
// product rounded and then added, and subtracted from C once.
//
// kern is this function on every GOARCH but amd64 (kernel_generic.go) and
// on an amd64 CPU without FMA. With FMA kern is the assembly in
// kernel_amd64.s, which takes each element's sum in the same order from +0
// but fuses every multiply with its add (s = math.FMA(a, b, s)), so its
// bits are that fused chain's, not kernGo's. Each loaded element of A
// feeds nr products there and each of B mr, so a multiply-add costs 0.375
// loads where a row-by-row dot product pays 2. Where the CPU has AVX-512
// too, the level-3 kernels run most of their flops through kernPanel
// instead, an 8×16 block over packed B with the same fused bits, and kern
// takes the rest.
//
// Every row of the block is sliced before the first element is read, so a
// short operand panics before C is read or written.
func kernGo(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	a0, a1, a2, a3 := a[:k], a[lda:lda+k], a[2*lda:2*lda+k], a[3*lda:3*lda+k]
	a4, a5, a6, a7 := a[4*lda:4*lda+k], a[5*lda:5*lda+k], a[6*lda:6*lda+k], a[7*lda:7*lda+k]
	b0, b1, b2, b3 := b[:k], b[ldb:ldb+k], b[2*ldb:2*ldb+k], b[3*ldb:3*ldb+k]
	c0, c1, c2, c3 := c[:nr], c[ldc:ldc+nr], c[2*ldc:2*ldc+nr], c[3*ldc:3*ldc+nr]
	c4, c5, c6, c7 := c[4*ldc:4*ldc+nr], c[5*ldc:5*ldc+nr], c[6*ldc:6*ldc+nr], c[7*ldc:7*ldc+nr]
	kern2x4(a0, a1, b0, b1, b2, b3, c0, c1)
	kern2x4(a2, a3, b0, b1, b2, b3, c2, c3)
	kern2x4(a4, a5, b0, b1, b2, b3, c4, c5)
	kern2x4(a6, a7, b0, b1, b2, b3, c6, c7)
}

// kern2x4 is a quarter of kernGo: C rows c0, c1 minus the dot products of
// A rows a0, a1 with B rows b0…b3, all of a0's length.
func kern2x4(a0, a1, b0, b1, b2, b3, c0, c1 []float64) {
	a1 = a1[:len(a0)]
	b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
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
	c0, c1 = c0[:nr], c1[:nr]
	c0[0] -= s00
	c0[1] -= s01
	c0[2] -= s02
	c0[3] -= s03
	c1[0] -= s10
	c1[1] -= s11
	c1[2] -= s12
	c1[3] -= s13
}

// packPanel copies B's first panelN rows, k elements each, into p as k
// rows of panelN: p[t*panelN+j] = B[j][t], the panel kernPanel reads. It
// goes eight rows of B at a time, sliced up front, and writes each half
// row of p whole, so a short B panics before p is written past the
// previous eight rows. k must be at most panelK.
func packPanel(k int, b []float64, ldb int, p *panel) {
	for j := 0; j < panelN; j += 8 {
		r := b[j*ldb:]
		b0, b1, b2, b3 := r[:k], r[ldb:ldb+k], r[2*ldb:2*ldb+k], r[3*ldb:3*ldb+k]
		b4, b5, b6, b7 := r[4*ldb:4*ldb+k], r[5*ldb:5*ldb+k], r[6*ldb:6*ldb+k], r[7*ldb:7*ldb+k]
		b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
		b4, b5, b6, b7 = b4[:len(b0)], b5[:len(b0)], b6[:len(b0)], b7[:len(b0)]
		for t, x := range b0 {
			q := (*[8]float64)(p[t*panelN+j:])
			q[0], q[1], q[2], q[3] = x, b1[t], b2[t], b3[t]
			q[4], q[5], q[6], q[7] = b4[t], b5[t], b6[t], b7[t]
		}
	}
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
