package blas

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"xkaapi/internal/xrand"
)

// fuzzValue decodes one byte of fuzz input into a matrix entry. Most bytes
// are multiples of 2⁻⁷ in [-1, 1): their products are multiples of 2⁻¹⁴ no
// larger than 1, so a gemm or syrk sum of up to 140 of them is exact in any
// order and only the kernels' indexing can make them disagree. One byte in
// eight is -0 and one in eight a subnormal of either sign.
func fuzzValue(b byte) float64 {
	switch b & 7 {
	case 6:
		return math.Copysign(0, -1)
	case 7:
		v := math.Float64frombits(uint64(b) << 40) // exponent bits zero
		if b&0x80 != 0 {
			v = -v
		}
		return v
	}
	return float64(int8(b)) / 128
}

// fuzzMat returns a rows×cols matrix at leading dimension cols+pad whose
// entries are decoded from data (cycled from offset *at), with its padding
// set to off.
func fuzzMat(data []byte, at *int, rows, cols, pad int, off float64) ([]float64, int) {
	ld := cols + pad
	a := make([]float64, rows*ld)
	for i := 0; i < rows; i++ {
		for j := 0; j < ld; j++ {
			if j >= cols {
				a[i*ld+j] = off
				continue
			}
			var b byte
			if len(data) > 0 {
				b = data[*at%len(data)]
			}
			*at++
			a[i*ld+j] = fuzzValue(b)
		}
	}
	return a, ld
}

// fuzzSPD is fuzzMat's square matrix made symmetric positive definite the
// way randSPD does it: the lower triangle mirrored, n+1 added to the
// diagonal.
func fuzzSPD(data []byte, at *int, n, pad int, off float64) ([]float64, int) {
	a, ld := fuzzMat(data, at, n, n, pad, off)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*ld+j] = a[j*ld+i]
		}
		a[i*ld+i] += float64(n) + 1
	}
	return a, ld
}

// FuzzTileKernels runs the four tile kernels against their references in
// ref.go on ragged shapes (m, n, k in 1…140) with leading dimensions padded
// by 0–5, at the tolerances of kernel_test.go. Read-only padding and
// triangles are NaN and updated ones guard, as there, so an out-of-region
// read poisons a result and an out-of-region write fails bitwise.
func FuzzTileKernels(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(1), uint16(0), []byte{1, 2, 3})
	f.Add(uint8(127), uint8(127), uint8(127), uint16(0x0db6), []byte{0x7f, 0x80, 0x06, 0x0f, 0x87})
	f.Add(uint8(139), uint8(88), uint8(33), uint16(0x0a5f), []byte{0, 0xff, 0x40, 0xc1})
	f.Add(uint8(5), uint8(130), uint8(139), uint16(0x0123), []byte("ragged"))
	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, pads uint16, data []byte) {
		m, n, k := 1+int(m8)%140, 1+int(n8)%140, 1+int(k8)%140
		pad := func(i int) int { return int(pads>>(3*i)&7) % 6 }
		at := 0

		a, lda := fuzzMat(data, &at, m, k, pad(0), math.NaN())
		b, ldb := fuzzMat(data, &at, n, k, pad(1), math.NaN())
		c, ldc := fuzzMat(data, &at, m, n, pad(2), guard)
		want := slices.Clone(c)
		GemmNT(m, n, k, a, lda, b, ldb, c, ldc)
		RefGemmNT(m, n, k, a, lda, b, ldb, want, ldc)
		agree(t, c, want, 1e-12, "gemm m,n,k=", m, n, k)

		s, lds := fuzzMat(data, &at, n, n, pad(3), guard)
		setUpper(s, n, lds, guard)
		want = slices.Clone(s)
		SyrkLN(n, k, b, ldb, s, lds)
		RefSyrkLN(n, k, b, ldb, want, lds)
		agree(t, s, want, 1e-12, "syrk n,k=", n, k)

		l, ldl := fuzzSPD(data, &at, n, pad(4), math.NaN())
		if err := RefPotrfLower(n, l, ldl); err != nil {
			t.Fatalf("reference potrf n=%d: %v", n, err)
		}
		setUpper(l, n, ldl, math.NaN())
		x, ldx := fuzzMat(data, &at, m, n, pad(0), guard)
		want = slices.Clone(x)
		TrsmRLTN(m, n, l, ldl, x, ldx)
		RefTrsmRLTN(m, n, l, ldl, want, ldx)
		agree(t, x, want, 1e-11, "trsm m,n=", m, n)

		p, ldp := fuzzSPD(data, &at, m, pad(1), guard)
		setUpper(p, m, ldp, guard)
		want = slices.Clone(p)
		if err := PotrfLower(m, p, ldp); err != nil {
			t.Fatalf("potrf n=%d: %v", m, err)
		}
		if err := RefPotrfLower(m, want, ldp); err != nil {
			t.Fatalf("reference potrf n=%d: %v", m, err)
		}
		agree(t, p, want, 1e-11, "potrf n=", m)
	})
}

// kernOperand draws one micro-kernel operand: with special set, one entry
// in four is NaN, ±Inf, ±0 or a subnormal. NaN is always math.NaN(): where
// two NaNs of different payloads meet, x86 keeps the one in the
// instruction's first operand, which for a commutative product is the
// compiler's choice, not the source's.
func kernOperand(rng *xrand.Rand, special bool) float64 {
	v := float64(rng.Next()%2000)/1000 - 1
	if !special || rng.Next()%4 != 0 {
		return v
	}
	switch rng.Next() % 6 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	}
	return math.Copysign(math.Float64frombits(1+rng.Next()%(1<<52-1)), v)
}

// fusedDot is +0 plus x[t]·y[t] in t order, each multiply fused with its
// add: the sum kern takes for one element of its block where useFMA is set.
func fusedDot(x, y []float64) float64 {
	s := 0.0
	for t := range x {
		s = math.FMA(x[t], y[t], s)
	}
	return s
}

// kernFused is the micro-kernel as the fused per-element chain, each
// element's fusedDot subtracted from C once: kern's oracle where useFMA is
// set.
func kernFused(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			c[i*ldc+j] -= fusedDot(a[i*lda:i*lda+k], b[j*ldb:j*ldb+k])
		}
	}
}

// kern must equal its oracle bit for bit, C's padding included, for every
// k up to panelK and with special operands: on an amd64 CPU with FMA the
// fused chain kernFused, elsewhere kernGo. Where useAVX512 is set the 8×8
// panel block, kernPanel over a panel packPanel packed, must equal
// kernFused on each of its two 8×4 halves the same way. The one exception
// is the NaN payload: any NaN equals any NaN. An invalid operation (0×Inf,
// Inf−Inf) makes the default NaN, and where it meets math.NaN(), x86 keeps
// the first operand's payload; Go leaves the operand order of a commutative
// add or product to the compiler, and the race build swaps it. Every other
// value, ±0 included, is still compared bit for bit.
func TestKernBitwise(t *testing.T) {
	oracle, name := kernGo, "Go kernel"
	if useFMA {
		oracle, name = kernFused, "fused chain"
	}
	rng := xrand.New(17)
	same := func(got, want []float64, what string, k int, special bool) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s k=%d special=%v: C element %d is %x (%g), %s has %x (%g)", what, k, special,
					i, math.Float64bits(got[i]), got[i], name, math.Float64bits(want[i]), want[i])
			}
		}
	}
	for k := 1; k <= panelK; k++ {
		for _, special := range []bool{false, true} {
			fill := func(rows, cols, ld int) []float64 {
				x := make([]float64, rows*ld)
				for i := range x {
					if i%ld < cols {
						x[i] = kernOperand(&rng, special)
					} else {
						x[i] = guard
					}
				}
				return x
			}
			lda, ldb, ldc := k+int(rng.Next()%4), k+int(rng.Next()%4), nr+int(rng.Next()%4)
			a, b, c := fill(mr, k, lda), fill(nr, k, ldb), fill(mr, nr, ldc)
			want := slices.Clone(c)
			kern(k, a, lda, b, ldb, c, ldc)
			oracle(k, a, lda, b, ldb, want, ldc)
			same(c, want, "kern", k, special)

			if !useAVX512 {
				continue
			}
			ldc = panelN + int(rng.Next()%4)
			b, c = fill(panelN, k, ldb), fill(mr, panelN, ldc)
			want = slices.Clone(c)
			var p [panelK * panelN]float64
			packPanel(k, b, ldb, &p)
			kernPanel(k, a, lda, &p, c, ldc)
			kernFused(k, a, lda, b, ldb, want, ldc)
			kernFused(k, a, lda, b[nr*ldb:], ldb, want[nr:], ldc)
			same(c, want, "panel", k, special)
		}
	}
}

// A short operand panics with the index error the Go kernel gave (the
// messages below are its own). In GemmNT, SyrkLN and TrsmRLTN the
// operand is short only where a micro-block reads — m is at least mr, or
// the rows would take the scalar path — so the panic comes from kern's
// slicing, before the block's C is read or written. Every element a
// micro-block reads in PotrfLower has been read before by the scalar code,
// which is where its short operand fails.
func TestShortOperandPanics(t *testing.T) {
	cases := []struct {
		name   string
		call   func()
		want   string
		inKern bool
	}{
		{"gemm: B has three rows of four", func() {
			GemmNT(8, 4, 5, make([]float64, 40), 5, make([]float64, 15), 5, make([]float64, 32), 4)
		}, "runtime error: slice bounds out of range [:20] with capacity 15", true},
		{"syrk: A one short of four rows", func() {
			SyrkLN(8, 3, make([]float64, 11), 3, make([]float64, 64), 8)
		}, "runtime error: slice bounds out of range [:12] with capacity 11", true},
		{"trsm: B one short", func() {
			l := make([]float64, 64)
			for i := 0; i < 8; i++ {
				l[i*8+i] = 1
			}
			TrsmRLTN(8, 8, l, 8, make([]float64, 63), 8)
		}, "runtime error: slice bounds out of range [:60] with capacity 59", true},
		{"potrf: A one short", func() {
			const n = 20
			a := make([]float64, n*n)
			for i := 0; i < n; i++ {
				a[i*n+i] = 1
			}
			PotrfLower(n, a[:n*n-1], n)
		}, "runtime error: index out of range [63] with length 63", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if got := fmt.Sprint(r); got != tc.want {
					t.Fatalf("panic %q, want %q", got, tc.want)
				}
				if in := strings.Contains(string(debug.Stack()), "blas.kern"); in != tc.inKern {
					t.Fatalf("panic raised in the micro-kernel: %v, want %v", in, tc.inKern)
				}
			}()
			tc.call()
		})
	}

	// An 8×8 GemmNT at k = 5 is one panel where useAVX512 is set: with A,
	// B or C one element short it panics in packPanel's or kernPanel's
	// slicing, before any element of C changes. Elsewhere it is two kern
	// blocks, and a short B or C row is read by the second only, after
	// the first has updated its four columns; a short A row is read by
	// the first, so that case leaves C whole under every selection.
	const k = 5
	panel := []struct {
		name       string
		la, lb, lc int
		kern, pan  string // the bounds the panic names without and with the panel path
	}{
		{"gemm n=8: A one short", 8*k - 1, 8 * k, 64, "[:40] with capacity 39", "[:40] with capacity 39"},
		{"gemm n=8: B one short", 8 * k, 8*k - 1, 64, "[:20] with capacity 19", "[:40] with capacity 39"},
		{"gemm n=8: C one short", 8 * k, 8 * k, 63, "[:60] with capacity 59", "[:64] with capacity 63"},
	}
	for _, tc := range panel {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(23)
			a, b, c := randMat(&rng, tc.la), randMat(&rng, tc.lb), randMat(&rng, tc.lc)
			c0 := slices.Clone(c)
			want := "runtime error: slice bounds out of range " + tc.kern
			if useAVX512 {
				want = "runtime error: slice bounds out of range " + tc.pan
			}
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("panic %q, want %q", got, want)
				}
				if (useAVX512 || tc.la < 8*k) && !slices.Equal(c, c0) {
					t.Fatal("C changed before the panic")
				}
			}()
			GemmNT(8, 8, k, a, k, b, k, c, 8)
		})
	}
}
