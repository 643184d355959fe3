package blas

import (
	"fmt"
	"testing"

	"xkaapi/internal/xrand"
)

// Kernel benchmarks at the two tile sizes of the paper's Fig. 2 (128, 224)
// plus the skyline block size of Fig. 7 (88). b.SetBytes reports effective
// bandwidth; the ns/op convert to GFlop/s as 2·n³/ns.

func benchGemm(b *testing.B, n int) {
	rng := xrand.New(uint64(n))
	a := randMat(&rng, n*n)
	bb := randMat(&rng, n*n)
	c := randMat(&rng, n*n)
	b.SetBytes(int64(3 * n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(n, n, n, a, n, bb, n, c, n)
	}
}

func BenchmarkGemmNT(b *testing.B) {
	for _, n := range []int{64, 88, 128, 224} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGemm(b, n) })
	}
}

func BenchmarkSyrkLN(b *testing.B) {
	const n = 128
	rng := xrand.New(3)
	a := randMat(&rng, n*n)
	c := randMat(&rng, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyrkLN(n, n, a, n, c, n)
	}
}

func BenchmarkTrsmRLTN(b *testing.B) {
	const n = 128
	rng := xrand.New(4)
	l := randSPD(&rng, n, n)
	if err := PotrfLower(n, l, n); err != nil {
		b.Fatal(err)
	}
	src := randMat(&rng, n*n)
	bb := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Solved in place again and again, B would shrink into the
		// denormals within a few hundred iterations.
		copy(bb, src)
		TrsmRLTN(n, n, l, n, bb, n)
	}
}

func BenchmarkPotrfLower(b *testing.B) {
	const n = 128
	rng := xrand.New(5)
	src := randSPD(&rng, n, n)
	work := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		if err := PotrfLower(n, work, n); err != nil {
			b.Fatal(err)
		}
	}
}
