//xk:hotpath — the micro-kernel is the inner loop of every tile task; xkvet
// keeps it free of locks and allocation.

package blas

// useAVX selects kernAVX over kernGo. It is decided once, when the package
// is initialised, from what the CPU and the OS report.
var useAVX = hasAVX()

// kern is the micro-kernel, C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
// (see kernGo), run by kernAVX where the CPU has AVX and by kernGo where it
// does not. It first takes every row slice of the block that kernGo takes,
// so an operand too short for the block panics with kernGo's index error
// before any element is read or written.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if !useAVX {
		kernGo(k, a, lda, b, ldb, c, ldc)
		return
	}
	_, _, _, _ = a[:k], a[lda:lda+k], a[2*lda:2*lda+k], a[3*lda:3*lda+k]
	_, _, _, _ = b[:k], b[ldb:ldb+k], b[2*ldb:2*ldb+k], b[3*ldb:3*ldb+k]
	_, _, _, _ = c[:nr], c[ldc:ldc+nr], c[2*ldc:2*ldc+nr], c[3*ldc:3*ldc+nr]
	// With k = 0 kernGo subtracts +0 from C, which leaves every bit of it
	// as it was.
	if k > 0 {
		kernAVX(k, &a[0], lda, &b[0], ldb, &c[0], ldc)
	}
}

// kernAVX is kernGo's loop and update on four-lane AVX registers. Lane j
// of sum register i is sij: ai[t] broadcast times (b0[t], b1[t], b2[t],
// b3[t]) added in, for the four rows of A at once, so each transpose of a
// 4×4 block of B feeds all sixteen sums. Every lane does the multiply and
// the add one line of kernGo does, with no fused multiply-add, the sums
// taken in k order from +0, and C updated with one subtraction per
// element. The results are therefore kernGo's, bit for bit. a, b and c
// point at the block's first element of A, B and C, whose rows are lda,
// ldb and ldc elements apart; k must be positive and every row in range,
// which kern has checked.
//
//go:noescape
func kernAVX(k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

// CPUID leaf 1 ECX and XCR0 bits that together say AVX can be used: the
// CPU has it, the OS saves registers with XSAVE, and XSAVE covers both the
// XMM and the upper YMM halves.
const (
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	xcr0SSE      = 1 << 1
	xcr0AVX      = 1 << 2
)

// avxUsable is the decision on the bits: ecx is CPUID leaf 1's ECX, xcr0
// the low word of XGETBV(0), which is only read when ecx has OSXSAVE.
func avxUsable(ecx, xcr0 uint32) bool {
	return ecx&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX &&
		xcr0&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
}

// hasAVX reads the bits avxUsable decides on.
func hasAVX() bool {
	ecx := cpuid1ECX()
	var xcr0 uint32
	if ecx&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	return avxUsable(ecx, xcr0)
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0; the CPU faults on it unless CPUID
// reports OSXSAVE.
func xgetbv0() uint32
