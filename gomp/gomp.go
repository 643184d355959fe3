// Package gomp reimplements the scheduling design of an OpenMP-3.0 runtime
// in the style of GCC 4.6's libGOMP, as the OpenMP comparator of the paper's
// Figs. 1, 3 and 7. It provides:
//
//   - parallel regions over a persistent thread team (Team.Parallel);
//   - worksharing loops with the static, dynamic and guided schedules of
//     "#pragma omp for schedule(...)" (Team.ParallelFor);
//   - explicit tasks with taskwait (TC.Task, TC.Taskwait), backed by a
//     central task queue protected by one lock — the design that makes
//     fine-grain OpenMP tasking orders of magnitude more expensive than
//     Cilk-class schedulers (§I of the paper), and collapses under
//     contention as cores are added (Fig. 1: "no time" at 32/48 cores);
//   - the libGOMP 4.6 throttle: when more than 64 tasks per thread are
//     queued, new tasks execute inline (§V of the paper notes this heuristic
//     "can limit the parallelism of the application").
package gomp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/jobfail"
)

// PanicError is the error a parallel region fails with when code inside it
// — the SPMD body on any thread, or an explicit task — panics. The region
// captures the first panic, cancels its queued tasks, completes the
// barrier and reports the error from Parallel, instead of the panic
// killing the team's threads. It is an alias of the one shared definition
// in internal/jobfail: this comparator keeps libGOMP's scheduling cost
// model, not its own failure protocol.
type (
	PanicError = jobfail.PanicError
)

// Schedule selects a worksharing loop schedule, mirroring the OpenMP
// schedule() clause.
type Schedule int

const (
	// Static partitions [lo,hi) into one contiguous block per thread
	// (chunk <= 0), or round-robin chunks of the given size (chunk > 0).
	Static Schedule = iota
	// Dynamic hands out chunks first-come first-served from a shared
	// counter; the default chunk is 1.
	Dynamic
	// Guided hands out chunks of decreasing size, remaining/(2*threads),
	// never smaller than the given chunk (minimum 1).
	Guided
)

// String names the schedule as it would appear in a schedule() clause.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return "?"
}

// taskThrottle is libGOMP 4.6's cutoff: tasks beyond 64 per thread run
// inline instead of being queued.
const taskThrottle = 64

// Team is a persistent pool of OpenMP-style threads. Parallel regions reuse
// the same threads, as omp parallel does. Parallel (and ParallelFor) may be
// called from concurrent goroutines: regions then serialize over the one
// team, one after the other, mirroring OpenMP's model of a single program
// thread encountering regions — concurrent clients share the team's
// threads instead of needing a team each.
type Team struct {
	p        int
	runMu    sync.Mutex // serializes regions over the team
	cmds     []chan *region
	wg       sync.WaitGroup
	closed   bool
	Throttle bool // apply the 64*threads task throttle (default on via NewTeam)
}

// NewTeam starts a team of n threads (GOMAXPROCS(0) if n <= 0): plain
// goroutines with no OS-thread lock, as in the other schedulers. The
// calling goroutine acts as thread 0 inside regions.
func NewTeam(n int) *Team {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tm := &Team{p: n, Throttle: true}
	tm.cmds = make([]chan *region, n-1)
	for i := range tm.cmds {
		tm.cmds[i] = make(chan *region)
		tid := i + 1
		tm.wg.Add(1)
		go func(cmd chan *region) {
			defer tm.wg.Done()
			for r := range cmd {
				r.run(tid)
			}
		}(tm.cmds[i])
	}
	return tm
}

// Close terminates the team's threads. It takes the region lock, so a
// Close racing a concurrent Parallel waits for the region to finish
// instead of closing the command channels under it.
func (tm *Team) Close() {
	tm.runMu.Lock()
	defer tm.runMu.Unlock()
	if tm.closed {
		return
	}
	tm.closed = true
	for _, c := range tm.cmds {
		close(c)
	}
	tm.wg.Wait()
}

// Threads returns the team size.
func (tm *Team) Threads() int { return tm.p }

// region is one parallel region instance. Its failure domain — first
// panic wins, queued tasks cancelled, context fan-out to running bodies —
// is the shared jobfail.State; the region is to gomp what a Job is to the
// task schedulers.
type region struct {
	team    *Team
	fn      func(*TC)
	fnsLeft atomic.Int32
	pending atomic.Int64 // queued or running explicit tasks
	qmu     sync.Mutex
	queue   []*gtask
	qlen    atomic.Int64
	done    sync.WaitGroup

	st jobfail.State // failure state machine (first panic / cancel wins)
}

// fail records the first failure of the region and cancels its queued
// tasks (their bodies are skipped at the scheduling points) and the
// region's context.
func (r *region) fail(err error) { r.st.Fail(err) }

// failed reports whether the region has failed (hot-path skip check).
func (r *region) failed() bool { return r.st.Failed() }

// firstErr returns the region's recorded failure, if any.
func (r *region) firstErr() error { return r.st.Err() }

// invoke runs fn behind a panic barrier; a panic fails the region.
func (r *region) invoke(fn func(*TC), tc *TC) {
	defer func() {
		if v := recover(); v != nil {
			r.fail(jobfail.Capture(v))
		}
	}()
	fn(tc)
}

// gtask is one explicit task.
type gtask struct {
	fn       func(*TC)
	parent   *gtask
	children atomic.Int32
}

// TC is the per-thread context inside a parallel region.
type TC struct {
	team *Team
	r    *region
	tid  int
	cur  *gtask
}

// TID returns the OpenMP thread number in [0, NumThreads).
func (tc *TC) TID() int { return tc.tid }

// NumThreads returns the team size.
func (tc *TC) NumThreads() int { return tc.team.p }

// Context returns the region's context: derived from the ParallelCtx
// parent (Background for Parallel), and cancelled — with the failure as
// cause — the instant the region fails on any thread or the parent
// context is cancelled or times out. Long-running region code selects on
// Context().Done() instead of waiting for the next scheduling point.
func (tc *TC) Context() context.Context { return tc.r.st.Context() }

// Parallel executes fn once per team thread (SPMD, like #pragma omp
// parallel) and returns after the implicit barrier at region end, which also
// waits for every explicit task created inside the region. Concurrent
// Parallel calls serialize: the calling goroutine acts as thread 0 of its
// region once the team is free.
//
// A panic on any thread of the region (or in an explicit task) does not
// kill the team: the first panic is captured as a *PanicError, the
// region's queued tasks are cancelled, every thread still reaches the
// barrier, and Parallel returns the error. The team remains usable for
// further regions.
func (tm *Team) Parallel(fn func(tc *TC)) error {
	return tm.ParallelCtx(context.Background(), fn)
}

// ParallelCtx is Parallel bound to a context: if ctx is cancelled (or its
// deadline expires) before the region completes, the region fails with
// ctx's error, its queued tasks are skipped, every thread still reaches
// the barrier, and the error is returned. The region's own context —
// cancelled by the first panic as well — is available to region code as
// TC.Context.
func (tm *Team) ParallelCtx(ctx context.Context, fn func(tc *TC)) error {
	tm.runMu.Lock()
	defer tm.runMu.Unlock()
	if tm.closed {
		panic("gomp: Parallel called after Close")
	}
	r := &region{team: tm, fn: fn}
	r.st.Init(ctx)
	r.fnsLeft.Store(int32(tm.p))
	r.done.Add(tm.p)
	for _, c := range tm.cmds {
		c <- r
	}
	r.run(0)
	r.done.Wait()
	return r.st.Finish()
}

// Single runs fn on thread 0 only, approximating #pragma omp single: other
// threads skip to the region's task-draining barrier.
func (tc *TC) Single(fn func()) {
	if tc.tid == 0 {
		fn()
	}
}

func (r *region) run(tid int) {
	tc := &TC{team: r.team, r: r, tid: tid}
	r.invoke(r.fn, tc)
	r.fnsLeft.Add(-1)
	// Implicit barrier: drain tasks until none are queued or running and
	// every thread reached the barrier.
	idle := 0
	for {
		if t := r.pop(); t != nil {
			tc.runQueued(t)
			idle = 0
			continue
		}
		if r.fnsLeft.Load() == 0 && r.pending.Load() == 0 {
			break
		}
		idle++
		if idle < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	r.done.Done()
}

// Task creates an explicit task (#pragma omp task). Under the throttle, or
// whenever too many tasks are queued, the task executes immediately in the
// creating thread (libGOMP's cutoff); otherwise it is pushed on the region's
// central queue.
func (tc *TC) Task(fn func(tc *TC)) {
	r := tc.r
	t := &gtask{fn: fn, parent: tc.cur}
	if t.parent != nil {
		t.parent.children.Add(1)
	}
	if tc.team.Throttle && r.qlen.Load() >= int64(taskThrottle*tc.team.p) {
		tc.runTask(t)
		return
	}
	r.pending.Add(1)
	r.qmu.Lock()
	r.queue = append(r.queue, t)
	r.qmu.Unlock()
	r.qlen.Add(1)
}

// Taskwait waits for the completion of the current task's children
// (#pragma omp taskwait), executing queued tasks — possibly unrelated ones,
// as GCC does at task scheduling points — while it waits.
func (tc *TC) Taskwait() {
	cur := tc.cur
	if cur == nil {
		// Called from the implicit task of the region: wait for all tasks.
		idle := 0
		for tc.r.pending.Load() != 0 {
			if t := tc.r.pop(); t != nil {
				tc.runQueued(t)
				idle = 0
				continue
			}
			idle++
			if idle < 128 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
		return
	}
	idle := 0
	for cur.children.Load() != 0 {
		if t := tc.r.pop(); t != nil {
			tc.runQueued(t)
			idle = 0
			continue
		}
		idle++
		if idle < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (r *region) pop() *gtask {
	r.qmu.Lock()
	var t *gtask
	if n := len(r.queue); n > 0 {
		t = r.queue[n-1]
		r.queue = r.queue[:n-1]
		r.qlen.Add(-1)
	}
	r.qmu.Unlock()
	return t
}

// runQueued executes a task taken from the region queue and repays its
// pending credit; inlined (throttled) tasks never held one.
func (tc *TC) runQueued(t *gtask) {
	tc.runTask(t)
	tc.r.pending.Add(-1)
}

func (tc *TC) runTask(t *gtask) {
	prev := tc.cur
	tc.cur = t
	// Tasks of a failed region are cancelled: the body is skipped but the
	// counters still drain so the barrier completes.
	if !tc.r.failed() {
		tc.r.invoke(t.fn, tc)
	}
	// OpenMP tasks complete when their body finishes; children are awaited
	// only at taskwait/barrier. The region barrier keeps the count exact.
	idle := 0
	for t.children.Load() != 0 {
		if u := tc.r.pop(); u != nil {
			tc.runQueued(u)
			idle = 0
			continue
		}
		idle++
		if idle < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	tc.cur = prev
	if t.parent != nil {
		t.parent.children.Add(-1)
	}
}

// ParallelFor runs body over [lo, hi) across the team with the given
// schedule, equivalent to "#pragma omp parallel for schedule(sched,chunk)".
// body receives the executing thread id and a sub-range. A panicking body
// fails the region and is reported as a *PanicError; with every schedule,
// threads stop claiming (static: entering) chunks once they observe the
// failure, so one panicking thread prunes the whole region's remaining work
// instead of only its own block.
func (tm *Team) ParallelFor(lo, hi int, sched Schedule, chunk int, body func(tid, lo, hi int)) error {
	return tm.ParallelForCtx(context.Background(), lo, hi, sched, chunk, body)
}

// ParallelForCtx is ParallelFor bound to a context: cancelling ctx (or its
// deadline expiring) fails the region, and with every schedule the threads
// stop claiming chunks once they observe the failure — the same pruning a
// body panic triggers. The region's context is visible to bodies through
// TC.Context inside an enclosing ParallelCtx, and here through the pruning
// itself.
func (tm *Team) ParallelForCtx(ctx context.Context, lo, hi int, sched Schedule, chunk int, body func(tid, lo, hi int)) error {
	if hi <= lo {
		return nil
	}
	p := tm.p
	switch sched {
	case Static:
		if chunk <= 0 {
			n := hi - lo
			return tm.ParallelCtx(ctx, func(tc *TC) {
				b := lo + tc.tid*n/p
				e := lo + (tc.tid+1)*n/p
				// One contiguous block per thread: the failure check can
				// only prune whole blocks not yet started.
				if e > b && !tc.r.failed() {
					body(tc.tid, b, e)
				}
			})
		}
		return tm.ParallelCtx(ctx, func(tc *TC) {
			for b := lo + tc.tid*chunk; b < hi; b += p * chunk {
				if tc.r.failed() {
					return // region failed: stop before the next chunk
				}
				e := b + chunk
				if e > hi {
					e = hi
				}
				body(tc.tid, b, e)
			}
		})
	case Dynamic:
		if chunk < 1 {
			chunk = 1
		}
		var next atomic.Int64
		next.Store(int64(lo))
		return tm.ParallelCtx(ctx, func(tc *TC) {
			for !tc.r.failed() {
				b := next.Add(int64(chunk)) - int64(chunk)
				if b >= int64(hi) {
					return
				}
				e := b + int64(chunk)
				if e > int64(hi) {
					e = int64(hi)
				}
				body(tc.tid, int(b), int(e))
			}
		})
	case Guided:
		if chunk < 1 {
			chunk = 1
		}
		var next atomic.Int64
		next.Store(int64(lo))
		return tm.ParallelCtx(ctx, func(tc *TC) {
			for !tc.r.failed() {
				b := next.Load()
				if b >= int64(hi) {
					return
				}
				rem := int64(hi) - b
				c := rem / int64(2*p)
				if c < int64(chunk) {
					c = int64(chunk)
				}
				if c > rem {
					c = rem
				}
				if next.CompareAndSwap(b, b+c) {
					body(tc.tid, int(b), int(b+c))
				}
			}
		})
	}
	return nil
}
