package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/jobfail"
	"xkaapi/internal/xrand"
)

func xrandSeed(base uint64, i int) xrand.Rand {
	return xrand.New(base + uint64(i)*0x9E3779B97F4A7C15 + 1)
}

// LoopOpts tunes ForEach. The zero value selects the defaults of
// kaapic_foreach: the iteration space is pre-partitioned into one reserved
// slice per worker, owners extract SeqGrain iterations at a time, and
// splitters leave intervals shorter than ParGrain alone.
type LoopOpts struct {
	// SeqGrain is the number of iterations the executing worker claims per
	// extraction; it bounds the window during which work cannot be stolen.
	// Zero selects n/(16*workers), at least 1.
	SeqGrain int64
	// ParGrain is the minimum remaining width a splitter will divide.
	// Zero selects SeqGrain.
	ParGrain int64
	// Slices is the number of reserved slices the range is pre-partitioned
	// into ("one slice reserved to each available core", §II-E). Zero
	// selects the worker count.
	Slices int
}

// loopCtx is the shared state of one ForEach invocation.
type loopCtx struct {
	body      func(*Worker, int64, int64)
	seqGrain  int64
	parGrain  int64
	job       *Job         // job of the ForEach caller: failure/cancel scope
	pending   atomic.Int64 // iterations neither executed nor abort-credited
	nextSlice atomic.Int32
	slices    []paddedInterval

	abort atomic.Bool // a chunk panicked: stop extracting iterations
	errMu sync.Mutex
	err   error // first chunk panic
}

// fail records the first chunk failure and aborts the loop.
func (lc *loopCtx) fail(err error) {
	lc.errMu.Lock()
	if lc.err == nil {
		lc.err = err
	}
	lc.errMu.Unlock()
	lc.abort.Store(true)
}

// firstErr returns the recorded chunk failure, if any.
func (lc *loopCtx) firstErr() error {
	lc.errMu.Lock()
	err := lc.err
	lc.errMu.Unlock()
	return err
}

// aborted reports whether iteration extraction must stop: a chunk panicked
// somewhere, or the enclosing job failed (panic elsewhere, cancellation).
func (lc *loopCtx) aborted() bool {
	return lc.abort.Load() || (lc.job != nil && lc.job.aborted())
}

// runChunk applies the loop body to [lo, hi) behind a panic barrier. On
// panic it fails both the loop context (so every participant stops
// extracting) and the job, credits the chunk's iterations (they will never
// re-execute, and pending must stay authoritative), and reports false.
func (lc *loopCtx) runChunk(w *Worker, lo, hi int64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			var err error
			if au, isAbort := r.(abortUnwind); isAbort {
				err = au.err // nested loop already recorded the panic
			} else {
				w.stats.panicked.Add(1)
				if lc.job != nil {
					lc.job.counts.Panicked.Add(1)
				}
				err = jobfail.Capture(r)
			}
			lc.fail(err)
			if lc.job != nil {
				lc.job.fail(err)
			}
			lc.pending.Add(lo - hi)
		}
	}()
	// Chaos loop-panic site: fail the chunk before its body runs, inside the
	// barrier above, exercising the adaptive split/extract boundary — the
	// recover credits [lo, hi) back to pending and aborts the loop exactly as
	// a user-body panic would.
	if cz := w.rt.chaos; cz != nil {
		if v, ok := cz.LoopPanic(); ok {
			panic(v)
		}
	}
	lc.body(w, lo, hi)
	return true
}

// paddedInterval is the reserved-slice slot: one Interval per worker,
// padded to a full cache line. A slice's owner CASes its bits word every
// SeqGrain iterations while thieves probe and retreat neighbouring
// slices; without the pad, four 16-byte Intervals share one line and
// every extraction bounces it across the cores that reserved them.
// (Interval itself stays unpadded: it is a public standalone type, and
// the per-task intervals of loopRun are separate heap allocations.)
type paddedInterval struct {
	Interval
	_ [48]byte
}

// claimSlice atomically claims the next untouched reserved slice, or nil.
func (lc *loopCtx) claimSlice() *Interval {
	for {
		i := int(lc.nextSlice.Add(1)) - 1
		if i >= len(lc.slices) {
			return nil
		}
		if lc.slices[i].Remaining() > 0 {
			return &lc.slices[i].Interval
		}
	}
}

// loopAdaptive couples a loop context with the interval its owner is
// currently iterating; it provides the splitter thieves call.
type loopAdaptive struct {
	lc *loopCtx
	iv atomic.Pointer[Interval]
}

// split implements the paper's kaapic_foreach splitter (§II-E). It first
// hands out whole reserved slices; once those are gone it divides the
// victim's live interval [bt, e) into k+1 near-equal parts, keeping one for
// the victim and returning the rest as fresh adaptive tasks, one per
// requesting thief.
func (la *loopAdaptive) split(thief *Worker, n int) []*Task {
	lc := la.lc
	var out []*Task
	for len(out) < n {
		iv := lc.claimSlice()
		if iv == nil {
			break
		}
		out = append(out, thief.newLoopTask(lc, iv))
	}
	if k := n - len(out); k > 0 {
		if iv := la.iv.Load(); iv != nil {
			rem := iv.Remaining()
			take := rem * int64(k) / int64(k+1)
			if take >= lc.parGrain && take > 0 {
				if lo, hi, ok := iv.ExtractBack(take); ok {
					out = thief.appendLoopTasks(out, lc, lo, hi, k)
				}
			}
		}
	}
	return out
}

// canSplit reports whether split would give one thief a task now: a
// reserved slice nobody has claimed, or a live interval whose back half is
// at least parGrain wide (split's share for k = 1). Both only shrink while
// the owner iterates, so a thief told no need not ask again until a new
// adaptive section wakes it.
func (la *loopAdaptive) canSplit() bool {
	lc := la.lc
	if int(lc.nextSlice.Load()) < len(lc.slices) {
		return true
	}
	iv := la.iv.Load()
	return iv != nil && iv.Remaining()/2 >= lc.parGrain
}

// newLoopTask wraps an interval into a free-standing adaptive task. Loop
// tasks have no parent frame: completion of the loop is tracked by the
// pending counter of the loop context instead.
func (w *Worker) newLoopTask(lc *loopCtx, iv *Interval) *Task {
	t := w.alloc()
	t.flags |= flagLoop
	t.body = func(w2 *Worker) { w2.loopRun(lc, iv) }
	t.job = lc.job // split-off slices stay in the loop's failure scope
	w.noteSpawned()
	return t
}

// appendLoopTasks partitions [lo,hi) into at most k near-equal intervals and
// appends one loop task per non-empty part.
func (w *Worker) appendLoopTasks(out []*Task, lc *loopCtx, lo, hi int64, k int) []*Task {
	span := hi - lo
	parts := int64(k)
	if parts > span {
		parts = span
	}
	for i := int64(0); i < parts; i++ {
		plo := lo + i*span/parts
		phi := lo + (i+1)*span/parts
		if phi <= plo {
			continue
		}
		iv := new(Interval)
		iv.Reset(plo, phi)
		out = append(out, w.newLoopTask(lc, iv))
	}
	return out
}

// loopRun drains iv (and then any remaining reserved slices) through the
// loop body, with the splitter installed so thieves can take work from the
// active interval at any time.
func (w *Worker) loopRun(lc *loopCtx, iv *Interval) {
	if iv == nil {
		if iv = lc.claimSlice(); iv == nil {
			return
		}
	}
	// The interval goes in before the splitter is installed: the thieves
	// SetAdaptive wakes must find something to split.
	la := &loopAdaptive{lc: lc}
	la.iv.Store(iv)
	ad := &Adaptive{Split: la.split, job: lc.job, loop: la}
	prev := w.SetAdaptive(ad)
	for iv != nil {
		la.iv.Store(iv)
		for !lc.aborted() {
			clo, chi, ok := iv.ExtractFront(lc.seqGrain)
			if !ok {
				break
			}
			if !lc.runChunk(w, clo, chi) {
				break
			}
			lc.pending.Add(clo - chi)
		}
		if lc.aborted() {
			// Abort sweep: stop executing, but keep claiming intervals and
			// credit their unexecuted iterations, so pending still drains
			// to zero. pending is what ForEach waits on — an iteration is
			// either executed or deliberately abandoned, never in limbo —
			// which guarantees no chunk body can still be running (and no
			// split-off slice still owed) once ForEach returns.
			if dlo, dhi, ok := iv.ExtractFront(intervalMaxWidth); ok {
				lc.pending.Add(dlo - dhi)
			}
		}
		iv = lc.claimSlice()
	}
	w.adaptive.Store(prev)
}

// ForEach applies body to every index of [lo, hi) in parallel, returning
// once all iterations have executed. body receives sub-ranges [l, h) and the
// worker executing them; distinct calls never overlap, every index is
// delivered exactly once, and no index is delivered twice even in the
// presence of concurrent splitting.
//
// This is the kaapic_foreach of the paper (§II-E): a single adaptive task
// whose remaining iterations are divided on demand as thieves ask for work,
// rather than a task per chunk. The caller participates in execution and, if
// the loop is fully distributed, schedules unrelated ready tasks while
// waiting for the last iterations.
func (w *Worker) ForEach(lo, hi int64, opt LoopOpts, body func(w *Worker, lo, hi int64)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	p := len(w.rt.workers)
	if opt.SeqGrain <= 0 {
		opt.SeqGrain = n / int64(16*p)
		if opt.SeqGrain < 1 {
			opt.SeqGrain = 1
		}
	}
	if opt.ParGrain <= 0 {
		opt.ParGrain = opt.SeqGrain
	}
	if p == 1 || n <= opt.SeqGrain {
		// Serial fast path — same failure contract as the parallel path:
		// poll the job at every grain boundary so Cancel/ctx stop the loop,
		// and unwind the calling body instead of returning normally after a
		// failure.
		var job *Job
		if w.cur != nil {
			job = w.cur.job
		}
		for clo := lo; clo < hi; clo += opt.SeqGrain {
			if job != nil && job.aborted() {
				panic(abortUnwind{job.Err()})
			}
			chi := clo + opt.SeqGrain
			if chi > hi {
				chi = hi
			}
			body(w, clo, chi)
		}
		if job != nil && job.aborted() {
			panic(abortUnwind{job.Err()})
		}
		return
	}
	nSlices := opt.Slices
	if nSlices <= 0 {
		nSlices = p
	}
	if int64(nSlices) > n {
		nSlices = int(n)
	}
	// Keep every slice narrower than the 31-bit interval limit.
	for n/int64(nSlices) >= intervalMaxWidth {
		nSlices *= 2
	}
	lc := &loopCtx{body: body, seqGrain: opt.SeqGrain, parGrain: opt.ParGrain}
	if w.cur != nil {
		lc.job = w.cur.job
	}
	lc.pending.Store(n)
	lc.slices = make([]paddedInterval, nSlices)
	for i := range lc.slices {
		slo := lo + int64(i)*n/int64(nSlices)
		shi := lo + int64(i+1)*n/int64(nSlices)
		lc.slices[i].Reset(slo, shi)
	}
	w.loopRun(lc, nil)
	// Our share is done; help with (or wait for) iterations stolen by
	// others. schedOnce keeps the worker useful for unrelated tasks too.
	// The wait is unconditional — pending is authoritative even on abort:
	// every iteration is either executed (credited after its chunk body
	// returns) or abandoned by a participant's abort sweep, so pending==0
	// guarantees no chunk body is still touching the caller's data when
	// ForEach returns, failure or not.
	idle := 0
	for lc.pending.Load() != 0 {
		if w.schedOnce() {
			idle = 0
			continue
		}
		idle++
		if idle == 1 {
			w.flushStats() // out of work: publish cached counters
		}
		if idle < idleSpinBeforeSleep {
			runtime.Gosched()
		} else {
			time.Sleep(idleSleep)
		}
	}
	// Unwind the calling body instead of returning normally after a
	// failure: code after a loop must not run on partial results. The
	// sentinel carries the original error; the body-level recover in
	// runBody records it on the job without double-counting the panic.
	if err := lc.firstErr(); err != nil {
		panic(abortUnwind{err})
	}
	if lc.job != nil && lc.job.aborted() {
		panic(abortUnwind{lc.job.Err()})
	}
}
