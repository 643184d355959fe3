// Package par provides the higher-level parallel algorithms the paper
// builds on top of the adaptive task model (§II-D: "for applications
// developers, a set of higher parallel algorithms, like those of the STL,
// are proposed on top of the adaptive task model", citing Traoré et al.'s
// deque-free work-optimal parallel STL).
//
// All algorithms run inside an xkaapi runtime, use the adaptive foreach for
// loops (work is divided only when cores are idle) and fork-join tasks for
// divide-and-conquer, and are deterministic: parallel results equal the
// sequential ones.
//
// Prefix deserves a note: the paper invokes Fich's lower bound (a parallel
// prefix of n inputs in logarithmic time needs ≥ 4n operations versus n−1
// sequentially) as the reason adaptive algorithms must bound their extra
// operations. Scan here uses the classical two-pass scheme: it only pays
// the second pass over the blocks that were actually executed in parallel.
//
// Two entry points take a *xkaapi.Runtime instead of a *xkaapi.Proc: Do and
// ForEach submit a fresh job, so independent goroutines can run parallel
// algorithms concurrently over one shared pool. Everything else composes
// inside an already running task.
package par

import (
	"context"
	"sort"

	"xkaapi"
)

// Do runs the given functions as parallel siblings of one job on rt and
// returns when all of them (and every task they spawned) completed,
// reporting the job's error: nil on success, or a *xkaapi.PanicError if any
// sibling (or a task it spawned) panicked — the first panic wins and the
// job's remaining siblings are cancelled. Any goroutine may call Do,
// concurrently with other Do/ForEach calls and submitted jobs: all of them
// multiplex over rt's one worker pool, so concurrent clients do not need
// private runtimes.
func Do(rt *xkaapi.Runtime, fns ...func(*xkaapi.Proc)) error {
	return DoCtx(context.Background(), rt, fns...)
}

// DoCtx is Do bound to a context: cancelling ctx (or its deadline
// expiring) fails the job, prunes the siblings not yet started, and
// cancels the context every sibling sees through Proc.Context — the same
// signal a sibling panic fires — so long-running siblings can select on
// it and return early.
func DoCtx(ctx context.Context, rt *xkaapi.Runtime, fns ...func(*xkaapi.Proc)) error {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return rt.RunCtx(ctx, fns[0])
	}
	return rt.RunCtx(ctx, func(p *xkaapi.Proc) {
		for _, fn := range fns[1:] {
			p.Spawn(fn)
		}
		fns[0](p)
		p.Sync()
	})
}

// ForEach runs body over [lo, hi) as one job on rt with the adaptive loop
// scheduler and reports the job's error (a panicking body aborts the loop
// and surfaces as a *xkaapi.PanicError). Like Do it is safe to call from
// any goroutine; concurrent loops share the pool.
func ForEach(rt *xkaapi.Runtime, lo, hi int, body func(p *xkaapi.Proc, lo, hi int)) error {
	return ForEachCtx(context.Background(), rt, lo, hi, body)
}

// ForEachCtx is ForEach bound to a context: cancelling ctx (or its
// deadline expiring) aborts the loop at the next grain boundary with ctx's
// error; bodies doing per-chunk I/O can additionally take p.Context() for
// intra-chunk deadline awareness.
func ForEachCtx(ctx context.Context, rt *xkaapi.Runtime, lo, hi int, body func(p *xkaapi.Proc, lo, hi int)) error {
	return rt.RunCtx(ctx, func(p *xkaapi.Proc) { xkaapi.Foreach(p, lo, hi, body) })
}

// Map applies f to every element of src, writing dst (which must have the
// same length), in parallel.
func Map[T, U any](p *xkaapi.Proc, dst []U, src []T, f func(T) U) {
	if len(dst) != len(src) {
		panic("par: Map length mismatch")
	}
	xkaapi.Foreach(p, 0, len(src), func(_ *xkaapi.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = f(src[i])
		}
	})
}

// Reduce folds xs with the associative, commutative op; id must be its
// identity.
func Reduce[T any](p *xkaapi.Proc, xs []T, id T, op func(T, T) T) T {
	return xkaapi.ForeachReduce(p, 0, len(xs),
		func() T { return id },
		func(_ *xkaapi.Proc, lo, hi int, acc T) T {
			for i := lo; i < hi; i++ {
				acc = op(acc, xs[i])
			}
			return acc
		},
		op)
}

// Sum adds up a slice of numbers.
func Sum[T int | int32 | int64 | float32 | float64](p *xkaapi.Proc, xs []T) T {
	var zero T
	return Reduce(p, xs, zero, func(a, b T) T { return a + b })
}

// Count returns how many elements satisfy pred.
func Count[T any](p *xkaapi.Proc, xs []T, pred func(T) bool) int {
	return xkaapi.ForeachReduce(p, 0, len(xs),
		func() int { return 0 },
		func(_ *xkaapi.Proc, lo, hi, acc int) int {
			for i := lo; i < hi; i++ {
				if pred(xs[i]) {
					acc++
				}
			}
			return acc
		},
		func(a, b int) int { return a + b })
}

// MinIndex returns the index of the smallest element under less, or -1 for
// an empty slice. Ties resolve to the smallest index, so the result is
// deterministic.
func MinIndex[T any](p *xkaapi.Proc, xs []T, less func(a, b T) bool) int {
	if len(xs) == 0 {
		return -1
	}
	best := xkaapi.ForeachReduce(p, 0, len(xs),
		func() int { return -1 },
		func(_ *xkaapi.Proc, lo, hi, acc int) int {
			for i := lo; i < hi; i++ {
				if acc < 0 || less(xs[i], xs[acc]) || (!less(xs[acc], xs[i]) && i < acc) {
					acc = i
				}
			}
			return acc
		},
		func(a, b int) int {
			switch {
			case a < 0:
				return b
			case b < 0:
				return a
			case less(xs[a], xs[b]):
				return a
			case less(xs[b], xs[a]):
				return b
			case a < b:
				return a
			default:
				return b
			}
		})
	return best
}

// FindFirst returns the smallest index whose element satisfies pred, or -1.
// Chunks past an already-found match are pruned, so the extra work over a
// sequential find stays bounded (the adaptive-algorithm requirement of
// §II-D).
func FindFirst[T any](p *xkaapi.Proc, xs []T, pred func(T) bool) int {
	found := int64(len(xs)) // smallest matching index so far
	fp := &found
	xkaapi.Foreach(p, 0, len(xs), func(_ *xkaapi.Proc, lo, hi int) {
		if int64(lo) >= atomicLoad(fp) {
			return // a match at a smaller index already exists
		}
		for i := lo; i < hi; i++ {
			if pred(xs[i]) {
				atomicMin(fp, int64(i))
				return
			}
		}
	})
	if found == int64(len(xs)) {
		return -1
	}
	return int(found)
}

// Scan computes the inclusive prefix combination of src into dst under the
// associative op (dst[i] = src[0] op … op src[i]). Two passes: per-block
// sums in parallel, a sequential exclusive scan over the ~P block sums, and
// a parallel rewrite pass seeded with each block's offset.
func Scan[T any](p *xkaapi.Proc, dst, src []T, id T, op func(T, T) T) {
	n := len(src)
	if len(dst) != n {
		panic("par: Scan length mismatch")
	}
	if n == 0 {
		return
	}
	nb := 4 * p.NumWorkers()
	if nb > n {
		nb = n
	}
	bounds := make([]int, nb+1)
	for i := 0; i <= nb; i++ {
		bounds[i] = i * n / nb
	}
	sums := make([]T, nb)
	// Pass 1: block-local inclusive scans into dst, recording block totals.
	xkaapi.Foreach(p, 0, nb, func(_ *xkaapi.Proc, lo, hi int) {
		for b := lo; b < hi; b++ {
			acc := id
			for i := bounds[b]; i < bounds[b+1]; i++ {
				acc = op(acc, src[i])
				dst[i] = acc
			}
			sums[b] = acc
		}
	})
	// Sequential exclusive scan over the block totals.
	acc := id
	for b := 0; b < nb; b++ {
		s := sums[b]
		sums[b] = acc
		acc = op(acc, s)
	}
	// Pass 2: offset every block by the prefix of the blocks before it.
	xkaapi.Foreach(p, 1, nb, func(_ *xkaapi.Proc, lo, hi int) {
		for b := lo; b < hi; b++ {
			off := sums[b]
			for i := bounds[b]; i < bounds[b+1]; i++ {
				dst[i] = op(off, dst[i])
			}
		}
	})
}

// Sort sorts xs in place under less, with a fork-join merge sort on top of
// the runtime (sequential sort.Slice below the grain, parallel merge of the
// halves by binary-search splitting).
func Sort[T any](p *xkaapi.Proc, xs []T, less func(a, b T) bool) {
	buf := make([]T, len(xs))
	mergeSort(p, xs, buf, less)
}

const sortGrain = 4096

func mergeSort[T any](p *xkaapi.Proc, xs, buf []T, less func(a, b T) bool) {
	if len(xs) <= sortGrain {
		sort.SliceStable(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	mid := len(xs) / 2
	p.Spawn(func(p *xkaapi.Proc) { mergeSort(p, xs[:mid], buf[:mid], less) })
	mergeSort(p, xs[mid:], buf[mid:], less)
	p.Sync()
	parMerge(p, xs[:mid], xs[mid:], buf, less)
	copy(xs, buf)
}

// parMerge merges sorted a and b into out, splitting the bigger input at
// its midpoint and the other by binary search, in parallel.
func parMerge[T any](p *xkaapi.Proc, a, b, out []T, less func(x, y T) bool) {
	if len(a)+len(b) <= sortGrain {
		seqMerge(a, b, out, less)
		return
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	ma := len(a) / 2
	mb := sort.Search(len(b), func(i int) bool { return !less(b[i], a[ma]) })
	p.Spawn(func(p *xkaapi.Proc) { parMerge(p, a[:ma], b[:mb], out[:ma+mb], less) })
	parMerge(p, a[ma:], b[mb:], out[ma+mb:], less)
	p.Sync()
}

func seqMerge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
