package xkaapi

// reduceSlot holds one worker's private accumulator, padded so neighbouring
// workers do not share a cache line while accumulating.
type reduceSlot[T any] struct {
	v   T
	set bool
	_   [64]byte
}

// ForeachReduce runs a parallel loop that folds a result. The loop is
// Foreach's, at its grain. Each worker lazily initializes a private
// accumulator with init, threads it through its chunks via body, and the
// per-worker results are combined (in worker-id order) after the loop.
// combine must be associative and commutative, and init must return the
// identity of combine, because how iterations are grouped onto workers
// depends on stealing.
//
// This is the reduction support of kaapic_foreach: the paper's CW
// (cumulative write) access made convenient for loops.
func ForeachReduce[T any](p *Proc, lo, hi int,
	init func() T,
	body func(p *Proc, lo, hi int, acc T) T,
	combine func(a, b T) T,
) T {
	slots := make([]reduceSlot[T], p.NumWorkers())
	Foreach(p, lo, hi, func(w *Proc, l, h int) {
		s := &slots[w.ID()]
		if !s.set {
			s.v = init()
			s.set = true
		}
		s.v = body(w, l, h, s.v)
	})
	acc := init()
	for i := range slots {
		if slots[i].set {
			acc = combine(acc, slots[i].v)
		}
	}
	return acc
}
