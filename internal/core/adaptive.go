package core

import (
	"sync/atomic"

	"xkaapi/internal/jobfail"
)

// Adaptive is the handle a running task publishes to make its remaining work
// divisible (§II-D of the paper). While a worker has an Adaptive installed
// (see Worker.SetAdaptive), thieves that find the worker's deque empty invoke
// Split to carve tasks out of the running computation instead of failing.
//
// Split executes on the thief, concurrently with the victim's task body; the
// two coordinate through whatever shared state the adaptive computation uses
// (for loops, an Interval). The runtime guarantees that at most one thief
// runs Split for a given victim at a time — it is called under the victim's
// combiner lock — which the paper notes "allows for simple and efficient
// synchronization protocols".
type Adaptive struct {
	// Split returns up to n ready-to-run tasks representing work removed
	// from the running task, one per waiting thief. It must tolerate the
	// victim concurrently draining the work to zero and simply return fewer
	// (or no) tasks. Tasks beyond the n asked for are not dropped: the
	// thief keeps them on its own deque, where any worker may take them.
	Split func(thief *Worker, n int) []*Task

	// job is the job of the task that installed the splitter, captured by
	// Worker.SetAdaptive. A panic inside Split — which executes on a thief,
	// not the victim — fails this job, and tasks produced by Split inherit
	// it as their cancel scope.
	job *Job

	// loop is set on the splitter a parallel loop installs (loop.go), which
	// can tell when it has nothing left to give; see splittable.
	loop *loopAdaptive
}

// splittable reports whether a thief asking ad now could be given work. A
// loop's splitter answers from its intervals; one built by a user is
// always worth asking. Thieves probe with it before posting a request, and
// park's final scan asks it too, so an idle worker neither spins on nor
// stays awake for a splitter that cannot split. The answer is a snapshot:
// the victim may claim the work first.
func (ad *Adaptive) splittable() bool {
	return ad.loop == nil || ad.loop.canSplit()
}

// split invokes ad.Split on thief w with a panic barrier: a panicking
// splitter fails the installing task's job and yields no tasks instead of
// unwinding (and killing) the thief. Callers must hold the victim's
// combiner lock, as for Split itself. Tasks returned without a job inherit
// the splitter's. At most n tasks are returned: the extras of a splitter
// that returned more go on w's own deque, for w or another thief to run, so
// both steal protocols (combineServe, stealDirect) run every task made.
// split counts the call in Stats.Splits and every task made, extras
// included, in Stats.SplitTasks.
func (ad *Adaptive) split(w *Worker, n int) (out []*Task) {
	w.stats.splits.Add(1)
	// Tasks a panicking splitter already built are unreachable (the panic
	// discards its return value) and will never execute, so account them as
	// cancelled to keep the quiescent Spawned == Executed + Cancelled
	// invariant. Crediting cancelled — rather than rolling spawned back —
	// preserves the live-stats contract that every counter is monotone:
	// only the thief itself creates tasks during Split, all against w's own
	// counters (spawnedTotal includes w's unpublished increment cache), so
	// the delta below is exact. The flush publishes the spawn counts the
	// cancelled credit balances against, so the invariant holds as soon as
	// the job drains, not a batch window later.
	preSpawned := w.spawnedTotal()
	defer func() {
		if r := recover(); r != nil {
			w.stats.panicked.Add(1)
			if lost := w.spawnedTotal() - preSpawned; lost > 0 {
				w.stats.cancelled.Add(lost)
			}
			w.flushStats()
			if ad.job != nil {
				ad.job.fail(jobfail.Capture(r))
			}
			out = nil
		}
	}()
	out = ad.Split(w, n)
	w.stats.splitTasks.Add(int64(len(out)))
	for _, t := range out {
		if t.job == nil {
			t.job = ad.job
		}
	}
	if len(out) > n {
		for _, t := range out[n:] {
			w.deque.push(t)
		}
		w.rt.maybeWake()
		out = out[:n]
	}
	return out
}

// Interval is a half-open iteration range [Lo,Hi) supporting concurrent
// front extraction by its owner and back extraction by a splitter. Both
// bounds live in one 64-bit word updated by compare-and-swap, giving the
// atomicity the paper obtains with a T.H.E.-like two-bound protocol on the
// loop indices (§II-E): the owner advances the front, thieves retreat the
// back, and a failed CAS replays the (cheap) extraction.
//
// The width of the interval must fit in 31 bits; parallel loops over larger
// spaces are pre-partitioned into slices (see loop.go), so the limit is
// never user-visible.
type Interval struct {
	base int64
	bits atomic.Uint64 // high 32 bits: lo offset; low 32 bits: hi offset
}

const intervalMaxWidth = 1<<31 - 1

func packBounds(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

func unpackBounds(b uint64) (lo, hi uint32) { return uint32(b >> 32), uint32(b) }

// Reset reinitializes the interval to [lo, hi). hi-lo must fit in 31 bits.
func (iv *Interval) Reset(lo, hi int64) {
	if hi < lo {
		hi = lo
	}
	if hi-lo > intervalMaxWidth {
		panic("core: interval wider than 2^31-1 iterations")
	}
	iv.base = lo
	iv.bits.Store(packBounds(0, uint32(hi-lo)))
}

// Remaining returns a snapshot of the number of unclaimed iterations.
func (iv *Interval) Remaining() int64 {
	lo, hi := unpackBounds(iv.bits.Load())
	if hi <= lo {
		return 0
	}
	return int64(hi - lo)
}

// ExtractFront atomically claims up to n iterations from the front and
// returns the claimed range. ok is false when the interval is empty.
func (iv *Interval) ExtractFront(n int64) (lo, hi int64, ok bool) {
	for {
		b := iv.bits.Load()
		l, h := unpackBounds(b)
		if l >= h {
			return 0, 0, false
		}
		take := int64(h - l)
		if take > n {
			take = n
		}
		nl := l + uint32(take)
		if iv.bits.CompareAndSwap(b, packBounds(nl, h)) {
			return iv.base + int64(l), iv.base + int64(nl), true
		}
	}
}

// ExtractBack atomically claims up to n iterations from the back and returns
// the claimed range. ok is false when the interval is empty.
func (iv *Interval) ExtractBack(n int64) (lo, hi int64, ok bool) {
	for {
		b := iv.bits.Load()
		l, h := unpackBounds(b)
		if l >= h {
			return 0, 0, false
		}
		take := int64(h - l)
		if take > n {
			take = n
		}
		nh := h - uint32(take)
		if iv.bits.CompareAndSwap(b, packBounds(l, nh)) {
			return iv.base + int64(nh), iv.base + int64(h), true
		}
	}
}
