//xk:hotpath — the Chase–Lev deque is lock-free by construction; xkvet
// rejects any mutex, channel, sleep, fmt or goroutine launch added here.

package core

import (
	"sync/atomic"
)

const dequeInitCap = 256 // initial slots; must be a power of two

// deque is the per-worker work-stealing deque, a lock-free Chase–Lev
// circular deque (Chase, Lev: "Dynamic Circular Work-Stealing Deque",
// SPAA 2005) in the role the paper assigns to Cilk's T.H.E. protocol
// (§II-C): the owner pushes and pops at the bottom, thieves steal from the
// top, oldest task first, and the two only meet on the last remaining task.
// Unlike T.H.E. there is no mutex anywhere — thieves claim the top slot
// with a CAS on head, the owner claims a contended last task with the same
// CAS, and buffer growth publishes a fresh buffer through an atomic
// pointer. The paper's steal-request aggregation (request.go) still
// serializes *aggregated* thieves per victim behind the combiner election
// lock, but the deque itself never blocks anyone.
//
// Memory-ordering argument, in Go's memory model (all sync/atomic
// operations are sequentially consistent, so the weak-memory fences of the
// original algorithm and of Lê et al.'s C11 port are implied):
//
//   - head only ever increases, and only by a successful CompareAndSwap.
//     A claim of index h is therefore unique: whoever wins the CAS h→h+1
//     owns the task at slot h, whether thief (steal) or owner (pop of the
//     last task).
//   - A thief reads a slot only after observing head h < tail: the owner's
//     slot store for index h is sequenced before its tail.Store(h+1), so
//     the observed tail orders the slot write before the thief's read.
//   - A slot at index h can only be overwritten by the push of index
//     h+capacity, and push never lets tail-head exceed the capacity of the
//     buffer it writes to, so head must first move past h — which fails
//     every outstanding CAS on h. A stale slot read is thus always
//     discarded. (Slots are atomic.Pointer values so this benign stale
//     read is also well-defined for the race detector.)
//   - grow copies [head, tail) into the new buffer before publishing it;
//     head is monotone, so any index a thief can still claim from the old
//     buffer holds the same task in the new one.
//
// The one addition to the textbook algorithm is shrink: an empty pop
// releases a grown buffer, so a past frontier does not pin its memory.
type deque struct {
	head atomic.Int64 // top: index of the next task to steal (CAS-claimed)
	_    [56]byte     // keep the thief-side and owner-side words on separate lines
	tail atomic.Int64 // bottom: index of the next free slot (owner only)
	_    [56]byte
	buf  atomic.Pointer[dequeBuf]
}

type dequeBuf struct {
	mask int64
	slot []atomic.Pointer[Task]
}

func (d *deque) init() {
	d.buf.Store(&dequeBuf{mask: dequeInitCap - 1, slot: make([]atomic.Pointer[Task], dequeInitCap)})
}

// size is a racy estimate of the number of queued tasks; it is used only to
// probe victims before posting a steal request.
func (d *deque) size() int64 {
	n := d.tail.Load() - d.head.Load()
	if n < 0 {
		n = 0
	}
	return n
}

// push appends t at the bottom. Owner only. The paper reports a ~10 cycle
// enqueue; this path is two atomic loads, one atomic store into the buffer,
// and one atomic store of the new bottom — no CAS, no lock.
func (d *deque) push(t *Task) {
	b := d.tail.Load()
	buf := d.buf.Load()
	if b-d.head.Load() > buf.mask { // full
		d.grow(b)
		buf = d.buf.Load()
	}
	buf.slot[b&buf.mask].Store(t)
	d.tail.Store(b + 1)
}

// grow doubles the buffer and publishes it through the atomic pointer.
// Owner only, lock-free: thieves keep reading the old buffer until they
// reload the pointer, which is safe because every index in [head, tail) is
// copied before the publish and head never decreases — an index still
// claimable from the old buffer holds the identical task in the new one.
func (d *deque) grow(b int64) {
	old := d.buf.Load()
	nbuf := &dequeBuf{
		mask: old.mask*2 + 1,
		slot: make([]atomic.Pointer[Task], (old.mask+1)*2),
	}
	for i := d.head.Load(); i < b; i++ {
		nbuf.slot[i&nbuf.mask].Store(old.slot[i&old.mask].Load())
	}
	d.buf.Store(nbuf)
}

// pop removes and returns the most recently pushed task, or nil if the
// deque is empty or the task was lost to a thief. Owner only, lock-free.
//
// The owner is the only writer of tail, and head is monotone, so an
// initial head >= tail read proves the deque empty without touching tail.
// A single remaining task is claimed by the same head CAS thieves use —
// the arbiter for index h is always the CAS h→h+1, so the task goes to
// exactly one side. Only the two-or-more case uses the Chase–Lev
// decrement-first dance: publish the new bottom, then re-read head to see
// whether thieves caught up while we were doing it.
//
// Every nil return leaves the deque in the canonical empty state
// (head == tail) and calls shrink.
func (d *deque) pop() *Task {
	b := d.tail.Load() - 1
	h := d.head.Load()
	if h > b {
		// Empty (h == b+1): only the owner adds tasks. This is the owner's
		// quiescence point, where a buffer grown for a past frontier is
		// released.
		d.shrink()
		return nil
	}
	buf := d.buf.Load()
	if h == b {
		// Single task: race thieves for it with the claiming CAS. No tail
		// update needed — on either outcome head becomes b+1 == tail, the
		// canonical empty state. Only the (rare, contended) losing outcome
		// shrinks: the winning pop is the spawn-sync hot path.
		t := buf.slot[b&buf.mask].Load()
		if d.head.CompareAndSwap(b, b+1) {
			return t
		}
		d.shrink()
		return nil
	}
	// At least two tasks were present: take the bottom one. Publish the
	// decremented bottom first so a thief's head < tail check cannot hand
	// out index b concurrently with us taking it.
	d.tail.Store(b)
	h = d.head.Load()
	t := buf.slot[b&buf.mask].Load()
	if h < b {
		// At least one task remains above ours: no thief can claim index b,
		// because claiming it requires head == b first.
		return t
	}
	if h == b && d.head.CompareAndSwap(b, b+1) {
		// Ours was the last task and we won the claim against the thieves.
		d.tail.Store(b + 1)
		return t
	}
	// Thieves drained everything, index b included, before our decrement
	// was visible (h > b), or a thief won the claim on the last task.
	// Restore the canonical empty state.
	d.tail.Store(b + 1)
	d.shrink()
	return nil
}

// shrink resets a grown buffer back to the initial capacity once the owner
// observes its deque empty, so a worker that once held a huge frontier (a
// wide fan-out, a big loop) does not keep the doubled buffers for the rest
// of the runtime's life. Owner only, and only from the empty state
// (head >= tail): no live index exists, so no thief can be claiming a slot
// — a thief that later observes tail > head is, by seq-cst ordering,
// guaranteed to reload the buffer pointer published before that push (the
// same publication argument as grow). Slots are fresh, so stale *Task
// pointers in the old buffer are unreachable and collectable immediately.
//
// Every pop path that returns nil ends in the canonical empty state and
// calls shrink — including the thief-won races — so "pop returned nil"
// deterministically implies "buffer is back at the initial capacity".
// Successful pops never pay the check: the owner's next miss releases the
// memory, which keeps the spawn-sync hot path (push one, pop it back)
// untouched.
func (d *deque) shrink() {
	if d.buf.Load().mask == dequeInitCap-1 {
		return // still at the initial size: nothing to release
	}
	d.buf.Store(&dequeBuf{mask: dequeInitCap - 1, slot: make([]atomic.Pointer[Task], dequeInitCap)})
}

// steal removes and returns the oldest task, or nil if the deque is empty.
// Any thief may call it concurrently with the owner and with other
// thieves; claims are arbitrated by the CAS on head. A failed CAS means
// someone else (a thief, or the owner popping the last task) claimed the
// observed index; the loop retries with fresh indices until it wins or
// finds the deque empty.
func (d *deque) steal() *Task {
	for {
		h := d.head.Load()
		b := d.tail.Load()
		if h >= b {
			return nil // empty (b may trail h by one during an owner pop)
		}
		buf := d.buf.Load()
		t := buf.slot[h&buf.mask].Load()
		if d.head.CompareAndSwap(h, h+1) {
			return t
		}
	}
}
