package blas

import (
	"fmt"
	"testing"
)

func TestAVXUsable(t *testing.T) {
	const all = cpuidOSXSAVE | cpuidAVX
	cases := []struct {
		name      string
		ecx, xcr0 uint32
		want      bool
	}{
		{"all set", all, 0b111, true},
		{"all set, other bits too", ^uint32(0), ^uint32(0), true},
		{"AVX without OSXSAVE", cpuidAVX, 0b111, false},
		{"OSXSAVE without AVX", cpuidOSXSAVE, 0b111, false},
		{"XCR0 without YMM state", all, 0b011, false},
		{"XCR0 without XMM state", all, 0b101, false},
		{"XCR0 zero", all, 0, false},
		{"nothing", 0, 0, false},
	}
	for _, tc := range cases {
		if got := avxUsable(tc.ecx, tc.xcr0); got != tc.want {
			t.Errorf("%s: avxUsable(%#x, %#b) = %v, want %v", tc.name, tc.ecx, tc.xcr0, got, tc.want)
		}
	}
}

// useAVX is decided once per process, so kern's other branch is reached
// only by flipping it here: the bitwise, block-order and panic checks hold
// on both.
func TestKernBothSelections(t *testing.T) {
	defer func(was bool) { useAVX = was }(useAVX)
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX() {
			t.Log("this CPU has no AVX: only the Go kernel runs")
			continue
		}
		useAVX = avx
		t.Run(fmt.Sprintf("avx=%v", avx), func(t *testing.T) {
			t.Run("bitwise", TestKernBitwise)
			t.Run("blockorder", TestGemmNTBlockOrderBits)
			t.Run("panics", TestShortOperandPanics)
		})
	}
}
