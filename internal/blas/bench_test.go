package blas

import (
	"fmt"
	"testing"

	"xkaapi/internal/xrand"
)

// Kernel benchmarks at the two tile sizes of the paper's Fig. 2 (128, 224)
// plus the skyline block size of Fig. 7 (88). Each reports its rate as
// GFlop/s; b.SetBytes adds gemm's effective bandwidth.

// reportGFlops reports the rate of a kernel call of the given flop count
// over the time the benchmark loop took.
func reportGFlops(b *testing.B, flops int) {
	b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFlop/s")
}

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
	reportGFlops(b, 2*n*n*n)
}

func BenchmarkGemmNT(b *testing.B) {
	for _, n := range []int{64, 88, 128, 224} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGemm(b, n) })
	}
}

// BenchmarkGemmNTCold is BenchmarkGemmNT at n = 128 with its operands out
// of cache: it cycles through 48 triples of tiles, 18 MB, well past L2,
// as the tile tasks of a Cholesky meet theirs. Reusing one triple, as
// BenchmarkGemmNT does, reads the kernel's rate on warm operands.
func BenchmarkGemmNTCold(b *testing.B) {
	const n, triples = 128, 48
	rng := xrand.New(6)
	var tiles [triples][3][]float64
	for i := range tiles {
		for j := range tiles[i] {
			tiles[i][j] = randMat(&rng, n*n)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tiles[i%triples]
		GemmNT(n, n, n, t[0], n, t[1], n, t[2], n)
	}
	reportGFlops(b, 2*n*n*n)
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
	reportGFlops(b, n*(n+1)*n)
}

func benchTrsm(b *testing.B, n int) {
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
	reportGFlops(b, n*n*n)
}

func benchPotrf(b *testing.B, n int) {
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
	reportGFlops(b, n*n*n/3)
}

// BenchmarkTrsmRLTN and BenchmarkPotrfLower are at the paper's tile size
// 128; their Small twins at 32 and 64, the tile sizes of the server's
// /cholesky requests.
func BenchmarkTrsmRLTN(b *testing.B)   { benchTrsm(b, 128) }
func BenchmarkPotrfLower(b *testing.B) { benchPotrf(b, 128) }

func BenchmarkTrsmRLTNSmall(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchTrsm(b, n) })
	}
}

func BenchmarkPotrfLowerSmall(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchPotrf(b, n) })
	}
}

// BenchmarkKernPanel runs the panel path's block alone, one 8×16 block of
// C against a packed panel, on operands that stay in cache: the block's
// own rate at each depth, the ceiling of every kernel built on it. On a
// CPU without the panel kernel it runs the four kern blocks that cover
// the same 8×16 of C, so the gate sees the benchmark everywhere.
func BenchmarkKernPanel(b *testing.B) {
	for _, k := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := xrand.New(uint64(k))
			a, bb, c := randMat(&rng, mr*k), randMat(&rng, panelN*k), randMat(&rng, mr*panelN)
			var p panel
			packPanel(k, bb, k, &p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if useAVX512 {
					kernPanel(k, a, k, p[:], c, panelN, false)
					continue
				}
				for j := 0; j < panelN; j += nr {
					kern(k, a, k, bb[j*k:], k, c[j:], panelN)
				}
			}
			reportGFlops(b, 2*mr*panelN*k)
		})
	}
}
