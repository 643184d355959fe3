//xk:hotpath — the micro-kernel is the inner loop of every tile task; xkvet
// keeps it free of locks and allocation.

package blas

// useFMA selects kernFMA over kernGo, and useAVX512 has GemmNT, SyrkLN,
// TrsmRLTN and PotrfLower run their 16-column panels through kernPanel.
// Both are decided once, when the package is initialised, from what the
// CPU and the OS report; the second implies the first.
var useFMA, useAVX512 = cpuSupport()

// kern is the micro-kernel, C[0:mr, 0:nr] -= A[0:mr, 0:k] · B[0:nr, 0:k]ᵀ
// (see kernGo), run by kernFMA where the CPU has FMA and by kernGo where it
// does not. On an FMA CPU its bits are those of the fused per-element chain
// s = math.FMA(a, b, s) from +0 in k order, subtracted from C once;
// elsewhere they are kernGo's. Either way the choice holds for the whole
// process, so every caller gets identical bits for identical inputs. It
// first takes every row slice of the block that kernGo takes, so an
// operand too short for the block panics with kernGo's index error before
// any element is read or written. Where useAVX512 is set, the four
// level-3 kernels give kern only what their panel path leaves (see
// kernPanel).
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

// kernPanel is the block of the panel path,
//
//	C[0:mr, 0:panelN] -= A[0:mr, 0:k] · P[0:k, 0:panelN]
//
// or, with store set, C[0:mr, 0:panelN] = A[0:mr, 0:k] · P[0:k, 0:panelN],
// where P is k rows of panelN held in p (p[t*panelN+j]): B's panelN rows
// transposed by packPanel, for GemmNT and SyrkLN, or the transposed
// inverse of a diagonal block, for TrsmRLTN. Each element is the fused
// chain kernFMA takes, s = math.FMA(a, p, s) from +0 in k order,
// subtracted from C once or stored as it is, so a GemmNT or SyrkLN block
// has the bits of the four 8×4 blocks kern would give. C may alias A, as
// in TrsmRLTN's solve: every element of A is read before C is written. It
// first indexes the last element of A, P and C the block reads, so a short
// operand panics with a Go index error before any element is read or
// written. k must be positive.
func kernPanel(k int, a []float64, lda int, p []float64, c []float64, ldc int, store bool) {
	_, _, _ = a[(mr-1)*lda+k-1], p[k*panelN-1], c[(mr-1)*ldc+panelN-1]
	kernAVX512(k, &a[0], lda, &p[0], &c[0], ldc, store)
}

// kernAVX512 is kernPanel on eight-lane registers. Sum registers 2i and
// 2i+1 hold row i of the block, columns 0–7 and 8–15; per k-step two loads
// of the panel's 16-wide row t are fused, times each of A's eight elements
// broadcast once, into the sixteen sums, so sixteen independent chains
// hide the FMA latency, each loaded element of A feeds two products and
// no shuffle is needed. The C block is prefetched before the k loop and
// read after it. a points at the block's first element of A, whose rows
// are lda elements apart, p at the panel and c at the block's first
// element of C, whose rows are ldc apart; k must be positive and every
// row in range, which kernPanel has checked.
//
//go:noescape
func kernAVX512(k int, a *float64, lda int, p *float64, c *float64, ldc int, store bool)

// kernFMA is the micro-kernel on four-lane FMA registers. Lane j of sum
// register i is sij: ai[t] broadcast times (b0[t], b1[t], b2[t], b3[t])
// fused into it with one rounding, for the eight rows of A at once, so
// each transpose of a 4×4 block of B feeds all 32 sums and eight
// independent chains hide the FMA latency; kernAVX512 takes the same
// chains eight lanes wide over a packed B, with no transpose at all. The
// sums are taken in k order from +0 and C is updated with one subtraction
// per element. a, b and c point at the block's first element of A, B and
// C, whose rows are lda, ldb and ldc elements apart; k must be positive
// and every row in range, which kern has checked.
//
//go:noescape
func kernFMA(k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

// CPUID leaf 1 ECX and XCR0 bits that together say FMA can be used: the
// CPU has FMA and AVX, the OS saves registers with XSAVE, and XSAVE covers
// both the XMM and the upper YMM halves. AVX-512 needs on top of them
// CPUID leaf 7 EBX's AVX512F bit and XSAVE of the opmask registers, the
// upper halves of ZMM0–15 and all of ZMM16–31.
const (
	cpuidFMA      = 1 << 12
	cpuidOSXSAVE  = 1 << 27
	cpuidAVX      = 1 << 28
	cpuid7AVX512F = 1 << 16
	xcr0SSE       = 1 << 1
	xcr0AVX       = 1 << 2
	xcr0AVX512    = 0b111 << 5
)

// fmaUsable is the decision on the bits: ecx is CPUID leaf 1's ECX, xcr0
// the low word of XGETBV(0), which is only read when ecx has OSXSAVE.
func fmaUsable(ecx, xcr0 uint32) bool {
	const need = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	return ecx&need == need && xcr0&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
}

// avx512Usable decides on AVX-512 as fmaUsable does on FMA, which it
// requires: maxLeaf is CPUID leaf 0's EAX, and ebx7, leaf 7's EBX, is only
// read when maxLeaf reaches 7.
func avx512Usable(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	return fmaUsable(ecx1, xcr0) && maxLeaf >= 7 &&
		ebx7&cpuid7AVX512F != 0 && xcr0&xcr0AVX512 == xcr0AVX512
}

// cpuSupport reads the bits fmaUsable and avx512Usable decide on.
func cpuSupport() (fma, avx512 bool) {
	maxLeaf, _, _ := cpuid(0)
	_, _, ecx1 := cpuid(1)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _ = cpuid(7)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	return fmaUsable(ecx1, xcr0), avx512Usable(maxLeaf, ecx1, ebx7, xcr0)
}

// cpuid returns EAX, EBX and ECX of CPUID leaf leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of XCR0; the CPU faults on it unless CPUID
// reports OSXSAVE.
func xgetbv0() uint32
