package blas

import (
	"fmt"
	"testing"
)

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

// useFMA is decided once per process, so kern's other branch is reached
// only by flipping it here: the bitwise, block-order and panic checks hold
// on both, each against the oracle of the kernel selected. The subtests
// are named avx=… after the assembly kernel this one replaced: avx=true
// runs kernFMA, avx=false kernGo.
func TestKernBothSelections(t *testing.T) {
	defer func(was bool) { useFMA = was }(useFMA)
	for _, fma := range []bool{false, true} {
		if fma && !hasFMA() {
			t.Log("this CPU has no FMA: only the Go kernel runs")
			continue
		}
		useFMA = fma
		t.Run(fmt.Sprintf("avx=%v", fma), func(t *testing.T) {
			t.Run("bitwise", TestKernBitwise)
			t.Run("blockorder", TestGemmNTBlockOrderBits)
			t.Run("panics", TestShortOperandPanics)
		})
	}
}
