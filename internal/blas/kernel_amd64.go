//xk:hotpath — the micro-kernel is the inner loop of every tile task; xkvet
// keeps it free of locks and allocation.

package blas

// useFMA selects kernFMA over kernGo. It is decided once, when the package
// is initialised, from what the CPU and the OS report.
var useFMA = hasFMA()

// kern is the micro-kernel, C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
// (see kernGo), run by kernFMA where the CPU has FMA and by kernGo where it
// does not. On an FMA CPU its bits are those of the fused per-element chain
// s = math.FMA(a, b, s) from +0 in k order, subtracted from C once;
// elsewhere they are kernGo's. Either way the choice holds for the whole
// process, so every caller gets identical bits for identical inputs. It
// first takes every row slice of the block that kernGo takes, so an
// operand too short for the block panics with kernGo's index error before
// any element is read or written.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if !useFMA {
		kernGo(k, a, lda, b, ldb, c, ldc)
		return
	}
	_, _, _, _ = a[:k], a[lda:lda+k], a[2*lda:2*lda+k], a[3*lda:3*lda+k]
	_, _, _, _ = a[4*lda:4*lda+k], a[5*lda:5*lda+k], a[6*lda:6*lda+k], a[7*lda:7*lda+k]
	_, _, _, _ = b[:k], b[ldb:ldb+k], b[2*ldb:2*ldb+k], b[3*ldb:3*ldb+k]
	_, _, _, _ = c[:nr], c[ldc:ldc+nr], c[2*ldc:2*ldc+nr], c[3*ldc:3*ldc+nr]
	_, _, _, _ = c[4*ldc:4*ldc+nr], c[5*ldc:5*ldc+nr], c[6*ldc:6*ldc+nr], c[7*ldc:7*ldc+nr]
	// With k = 0 the sums are +0, and subtracting +0 leaves every bit of C
	// as it was.
	if k > 0 {
		kernFMA(k, &a[0], lda, &b[0], ldb, &c[0], ldc)
	}
}

// kernFMA is the micro-kernel on four-lane FMA registers. Lane j of sum
// register i is sij: ai[t] broadcast times (b0[t], b1[t], b2[t], b3[t])
// fused into it with one rounding, for the eight rows of A at once, so
// each transpose of a 4×4 block of B feeds all 32 sums and eight
// independent chains hide the FMA latency. The sums are taken in k order
// from +0 and C is updated with one subtraction per element. a, b and c
// point at the block's first element of A, B and C, whose rows are lda,
// ldb and ldc elements apart; k must be positive and every row in range,
// which kern has checked.
//
//go:noescape
func kernFMA(k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

// CPUID leaf 1 ECX and XCR0 bits that together say FMA can be used: the
// CPU has FMA and AVX, the OS saves registers with XSAVE, and XSAVE covers
// both the XMM and the upper YMM halves.
const (
	cpuidFMA     = 1 << 12
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	xcr0SSE      = 1 << 1
	xcr0AVX      = 1 << 2
)

// fmaUsable is the decision on the bits: ecx is CPUID leaf 1's ECX, xcr0
// the low word of XGETBV(0), which is only read when ecx has OSXSAVE.
func fmaUsable(ecx, xcr0 uint32) bool {
	const need = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	return ecx&need == need && xcr0&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
}

// hasFMA reads the bits fmaUsable decides on.
func hasFMA() bool {
	ecx := cpuid1ECX()
	var xcr0 uint32
	if ecx&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	return fmaUsable(ecx, xcr0)
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0; the CPU faults on it unless CPUID
// reports OSXSAVE.
func xgetbv0() uint32
