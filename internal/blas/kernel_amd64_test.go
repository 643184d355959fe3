package blas

import "testing"

func TestFMAUsable(t *testing.T) {
	const all = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	cases := []struct {
		name      string
		ecx, xcr0 uint32
		want      bool
	}{
		{"all set", all, 0b111, true},
		{"all set, other bits too", ^uint32(0), ^uint32(0), true},
		{"AVX without FMA", cpuidOSXSAVE | cpuidAVX, 0b111, false},
		{"FMA without AVX", cpuidFMA | cpuidOSXSAVE, 0b111, false},
		{"no OSXSAVE", cpuidFMA | cpuidAVX, 0b111, false},
		{"XCR0 without YMM state", all, 0b011, false},
		{"XCR0 without XMM state", all, 0b101, false},
		{"XCR0 zero", all, 0, false},
		{"nothing", 0, 0, false},
	}
	for _, tc := range cases {
		if got := fmaUsable(tc.ecx, tc.xcr0); got != tc.want {
			t.Errorf("%s: fmaUsable(%#x, %#b) = %v, want %v", tc.name, tc.ecx, tc.xcr0, got, tc.want)
		}
	}
}

func TestAVX512Usable(t *testing.T) {
	const fma = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	cases := []struct {
		name                    string
		maxLeaf, ecx, ebx, xcr0 uint32
		want                    bool
	}{
		{"all set", 7, fma, cpuid7AVX512F, 0b1110_0111, true},
		{"all set, other bits too", 0x20, ^uint32(0), ^uint32(0), ^uint32(0), true},
		{"max leaf below 7", 6, fma, cpuid7AVX512F, 0b1110_0111, false},
		{"AVX512F without opmask state", 7, fma, cpuid7AVX512F, 0b1100_0111, false},
		{"AVX512F without ZMM state", 7, fma, cpuid7AVX512F, 0b0010_0111, false},
		{"no AVX512F", 7, fma, ^uint32(cpuid7AVX512F), 0b1110_0111, false},
		{"no OSXSAVE", 7, cpuidFMA | cpuidAVX, cpuid7AVX512F, 0b1110_0111, false},
		{"no FMA", 7, cpuidOSXSAVE | cpuidAVX, cpuid7AVX512F, 0b1110_0111, false},
		{"nothing", 0, 0, 0, 0, false},
	}
	for _, tc := range cases {
		if got := avx512Usable(tc.maxLeaf, tc.ecx, tc.ebx, tc.xcr0); got != tc.want {
			t.Errorf("%s: avx512Usable(%d, %#x, %#x, %#b) = %v, want %v",
				tc.name, tc.maxLeaf, tc.ecx, tc.ebx, tc.xcr0, got, tc.want)
		}
	}
}

// useFMA and useAVX512 are decided once per process, so kern's other
// branches and the panel path's absence are reached only by setting them
// here: the bitwise, block-order and panic checks hold under kernGo,
// kernFMA and kernFMA with the AVX-512 panels, each against the oracle of
// the kernels selected, and so do the trsm and potrf checks, whose code
// differs between the panel path and the others. The first two subtests are named avx=… after the
// assembly kernel kernFMA replaced: avx=false runs kernGo, avx=true
// kernFMA alone; avx512=true adds the panel path.
func TestKernBothSelections(t *testing.T) {
	defer func(fma, avx512 bool) { useFMA, useAVX512 = fma, avx512 }(useFMA, useAVX512)
	fma, avx512 := cpuSupport()
	for _, sel := range []struct {
		name        string
		fma, avx512 bool
	}{
		{"avx=false", false, false},
		{"avx=true", true, false},
		{"avx512=true", true, true},
	} {
		if sel.fma && !fma || sel.avx512 && !avx512 {
			t.Logf("%s: this CPU lacks the kernel", sel.name)
			continue
		}
		useFMA, useAVX512 = sel.fma, sel.avx512
		t.Run(sel.name, func(t *testing.T) {
			t.Run("bitwise", TestKernBitwise)
			t.Run("blockorder", TestGemmNTBlockOrderBits)
			t.Run("panics", TestShortOperandPanics)
			t.Run("trsm", TestTrsmRLTNAgainstReference)
			t.Run("potrf", TestPotrfLowerAgainstReference)
			t.Run("rejects", TestPotrfLowerRejects)
			t.Run("deterministic", TestKernelsDeterministic)
		})
	}
}
