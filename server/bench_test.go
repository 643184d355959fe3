package server

import (
	"fmt"
	"testing"

	"xkaapi"
)

// BenchmarkKernelCost sizes coalesceBelow (builtinRows): what one request's
// kernel costs as a job of its own on ONE worker — Submit, run, Wait —
// across the sizes around each row's threshold, next to an empty job for the
// per-job floor a perfect batch could save. A request is worth holding in
// the batch window only while that floor is not small change against its
// kernel. Timing only: the package is outside the bench-gate tier.
//
//	go test -run '^$' -bench KernelCost -benchtime 300x ./server
func BenchmarkKernelCost(b *testing.B) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	defer rt.Close()
	solve := func(b *testing.B, kernel func(*xkaapi.Proc, int, *int64), n int, want int64) {
		for b.Loop() {
			var out int64
			if err := rt.Submit(func(p *xkaapi.Proc) { kernel(p, n, &out) }).Wait(); err != nil || out != want {
				b.Fatalf("n=%d: result %d err %v, want %d", n, out, err, want)
			}
		}
	}
	b.Run("empty", func(b *testing.B) {
		solve(b, func(*xkaapi.Proc, int, *int64) {}, 0, 0)
	})
	for n := 16; n <= 21; n++ {
		b.Run(fmt.Sprintf("fib/n=%d", n), func(b *testing.B) { solve(b, fibTask, n, FibSeq(n)) })
	}
	for _, n := range []int{250_000, 500_000, 1_000_000, 2_000_000} {
		b.Run(fmt.Sprintf("loop/n=%d", n), func(b *testing.B) { solve(b, loopKernel, n, int64(n)*int64(n-1)/2) })
	}
}
