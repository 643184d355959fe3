package blas

import (
	"math"
	"testing"

	"xkaapi/internal/xrand"
)

func randMat(rng *xrand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = float64(rng.Next()%2000)/1000 - 1
	}
	return m
}

func randSPD(rng *xrand.Rand, n, lda int) []float64 {
	a := make([]float64, n*lda)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := float64(rng.Next()%2000)/1000 - 1
			a[i*lda+j] = v
			a[j*lda+i] = v
		}
		a[i*lda+i] += float64(n) + 1
	}
	return a
}

func TestTrsmSolvesSystem(t *testing.T) {
	// After B := B0 · L⁻ᵀ we must have B · Lᵀ = B0.
	rng := xrand.New(6)
	const m, n = 6, 9
	l := randSPD(&rng, n, n)
	if err := PotrfLower(n, l, n); err != nil {
		t.Fatal(err)
	}
	b0 := randMat(&rng, m*n)
	b := append([]float64(nil), b0...)
	TrsmRLTN(m, n, l, n, b, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for t2 := 0; t2 < n; t2++ {
				lv := 0.0
				if t2 <= j { // Lᵀ[t2][j] = L[j][t2], nonzero for t2 <= j
					lv = l[j*n+t2]
				}
				s += b[i*n+t2] * lv
			}
			if math.Abs(s-b0[i*n+j]) > 1e-9 {
				t.Fatalf("B·Lᵀ≠B0 at (%d,%d): %g vs %g", i, j, s, b0[i*n+j])
			}
		}
	}
}

func TestPotrfReconstructs(t *testing.T) {
	rng := xrand.New(8)
	const n = 20
	a := randSPD(&rng, n, n)
	orig := append([]float64(nil), a...)
	if err := PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += a[i*n+k] * a[j*n+k]
			}
			if math.Abs(s-orig[i*n+j]) > 1e-9 {
				t.Fatalf("L·Lᵀ≠A at (%d,%d): %g vs %g", i, j, s, orig[i*n+j])
			}
		}
	}
}

func TestTrsvRoundTrip(t *testing.T) {
	rng := xrand.New(9)
	const n = 12
	l := randSPD(&rng, n, n)
	if err := PotrfLower(n, l, n); err != nil {
		t.Fatal(err)
	}
	x0 := randMat(&rng, n)
	// b = L·(Lᵀ·x0); solving both triangles must recover x0.
	b := make([]float64, n)
	tmp := make([]float64, n)
	for i := 0; i < n; i++ { // tmp = Lᵀ·x0
		var s float64
		for j := i; j < n; j++ {
			s += l[j*n+i] * x0[j]
		}
		tmp[i] = s
	}
	for i := 0; i < n; i++ { // b = L·tmp
		var s float64
		for j := 0; j <= i; j++ {
			s += l[i*n+j] * tmp[j]
		}
		b[i] = s
	}
	TrsvLowerNoTrans(n, l, n, b)
	TrsvLowerTrans(n, l, n, b)
	for i := range x0 {
		if math.Abs(b[i]-x0[i]) > 1e-9 {
			t.Fatalf("round trip differs at %d: %g vs %g", i, b[i], x0[i])
		}
	}
}

func TestGemvSub(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2×3
	x := []float64{1, 1, 1}
	y := []float64{10, 20}
	GemvSub(2, 3, a, 3, x, y)
	if y[0] != 10-6 || y[1] != 20-15 {
		t.Fatalf("y=%v", y)
	}
	yt := []float64{1, 1, 1}
	xt := []float64{1, 2}
	GemvTransSub(2, 3, a, 3, xt, yt)
	// yt[j] -= sum_i a[i][j]*x[i] → [1-(1+8), 1-(2+10), 1-(3+12)]
	if yt[0] != -8 || yt[1] != -11 || yt[2] != -14 {
		t.Fatalf("yt=%v", yt)
	}
}
