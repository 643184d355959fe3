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

// A short operand panics where GemmNT, SyrkLN, TrsmRLTN and PotrfLower
// index the last element of every operand, before any block runs: the
// raising frame is the entry point, not a micro-kernel, and the operand the
// call writes is unchanged, under every kernel selection. Most operands
// below are short only where a later block reads, after an earlier one
// could have written. An operand short in length but not in capacity must
// panic too, with its spare capacity untouched.
func TestShortOperandPanics(t *testing.T) {
	const k, n = 5, 20
	rng := xrand.New(23)
	l := randMat(&rng, 64)
	for i := 0; i < 8; i++ {
		l[i*8+i] = 2
	}
	cases := []struct {
		name  string
		out   []float64 // the operand the call writes
		call  func(out []float64)
		want  string // the index and length the panic names
		frame string // the function that raises it
	}{
		{"gemm: B has three rows of four", randMat(&rng, 32), func(c []float64) {
			GemmNT(8, 4, 5, randMat(&rng, 40), 5, randMat(&rng, 15), 5, c, 4)
		}, "[19] with length 15", "GemmNT"},
		{"gemm n=8: A one short", randMat(&rng, 64), func(c []float64) {
			GemmNT(8, 8, k, randMat(&rng, 8*k-1), k, randMat(&rng, 8*k), k, c, 8)
		}, "[39] with length 39", "GemmNT"},
		{"gemm n=8: B one short", randMat(&rng, 64), func(c []float64) {
			GemmNT(8, 8, k, randMat(&rng, 8*k), k, randMat(&rng, 8*k-1), k, c, 8)
		}, "[39] with length 39", "GemmNT"},
		{"gemm n=8: C one short", randMat(&rng, 63), func(c []float64) {
			GemmNT(8, 8, k, randMat(&rng, 8*k), k, randMat(&rng, 8*k), k, c, 8)
		}, "[63] with length 63", "GemmNT"},
		{"gemm n=8: C one short, spare capacity", randMat(&rng, 64)[:63], func(c []float64) {
			GemmNT(8, 8, k, randMat(&rng, 8*k), k, randMat(&rng, 8*k), k, c, 8)
		}, "[63] with length 63", "GemmNT"},
		{"syrk: A one short of four rows", randMat(&rng, 64), func(c []float64) {
			SyrkLN(8, 3, randMat(&rng, 11), 3, c, 8)
		}, "[23] with length 11", "SyrkLN"},
		{"syrk n=16: A one short", randMat(&rng, 256), func(c []float64) {
			SyrkLN(16, 3, randMat(&rng, 47), 3, c, 16)
		}, "[47] with length 47", "SyrkLN"},
		{"trsm: B one short", randMat(&rng, 63), func(b []float64) {
			TrsmRLTN(8, 8, l, 8, b, 8)
		}, "[63] with length 63", "TrsmRLTN"},
		{"potrf: A one short", randSPD(&rng, n, n)[: n*n-1 : n*n-1], func(a []float64) {
			PotrfLower(n, a, n)
		}, "[399] with length 399", "PotrfLower"},
		{"potrf: A one short, spare capacity", randSPD(&rng, n, n)[:n*n-1], func(a []float64) {
			PotrfLower(n, a, n)
		}, "[399] with length 399", "PotrfLower"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := tc.out[:cap(tc.out)] // with any spare capacity
			out0 := slices.Clone(out)
			defer func() {
				want := "runtime error: index out of range " + tc.want
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("panic %q, want %q", got, want)
				}
				// The first blas frame below the runtime's panic frames raised it.
				_, raised, _ := strings.Cut(string(debug.Stack()), "panic(")
				_, raised, _ = strings.Cut(raised, "xkaapi/internal/blas.")
				if frame, _, _ := strings.Cut(raised, "("); frame != tc.frame {
					t.Errorf("panic raised in %s, want %s", frame, tc.frame)
				}
				if !slices.Equal(out, out0) {
					t.Error("the written operand changed before the panic")
				}
			}()
			tc.call(tc.out)
		})
	}
}
