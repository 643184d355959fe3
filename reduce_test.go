package xkaapi_test

import (
	"testing"

	"xkaapi"
)

func TestForeachReduceSum(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4))
	const n = 100000
	var got int64
	rt.Run(func(p *xkaapi.Proc) {
		got = xkaapi.ForeachReduce(p, 0, n,
			func() int64 { return 0 },
			func(_ *xkaapi.Proc, lo, hi int, acc int64) int64 {
				for i := lo; i < hi; i++ {
					acc += int64(i)
				}
				return acc
			},
			func(a, b int64) int64 { return a + b },
		)
	})
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("sum=%d want %d", got, want)
	}
}

func TestForeachReduceEmptyRange(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(2))
	rt.Run(func(p *xkaapi.Proc) {
		got := xkaapi.ForeachReduce(p, 3, 3,
			func() int { return 0 },
			func(_ *xkaapi.Proc, lo, hi, acc int) int { return acc + (hi - lo) },
			func(a, b int) int { return a + b },
		)
		if got != 0 {
			t.Errorf("empty reduce=%d want 0", got)
		}
	})
}

func TestForeachReduceMax(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(3))
	data := make([]float64, 10000)
	for i := range data {
		data[i] = float64((i * 2654435761) % 99991)
	}
	data[7777] = 1e9
	var got float64
	rt.Run(func(p *xkaapi.Proc) {
		got = xkaapi.ForeachReduce(p, 0, len(data),
			func() float64 { return -1 },
			func(_ *xkaapi.Proc, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					if data[i] > acc {
						acc = data[i]
					}
				}
				return acc
			},
			func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			},
		)
	})
	if got != 1e9 {
		t.Fatalf("max=%g want 1e9", got)
	}
}
