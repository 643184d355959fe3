//xk:hotpath — the worker's spawn/pop/execute loop is the per-task fast
// path; xkvet rejects blocking or allocating constructs in this file.
// The deliberate slow paths (park, the idle backoff) are marked
// //xk:coldpath / //xk:allow(hotpath) below.

package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/chaos"
	"xkaapi/internal/jobfail"
	"xkaapi/internal/xrand"
)

// Worker is one scheduling thread of the runtime — on Go, a plain goroutine.
// By default the runtime creates one worker per P (GOMAXPROCS), the unit
// that plays the paper's core (§II); each worker owns a deque of ready
// tasks, a request box through which thieves ask it for work, and a free
// list of recycled Task objects. A worker is not locked to an OS thread: Go
// has no core affinity, so the lock would only add a futex hand-off to every
// park, Gosched, wake and GC stop-the-world (doc.go has the measurement).
//
// A Worker is handed to every task body as its execution context: spawning,
// syncing and parallel loops are methods on it. Task bodies must only use the
// Worker they were given, and only while they run.
type Worker struct {
	id  int
	rt  *Runtime
	cur *Task // task currently being executed

	// frameKids is the owner-local half of the current frame's child
	// counter — the Cilk-style split that keeps frame accounting off the
	// LOCK-prefixed path: Spawn increments it with a plain add, and a child
	// completed by this worker while its parent is still the current frame
	// decrements it the same way. Only a child completed elsewhere (stolen,
	// or a dataflow release landing on another worker — equivalently,
	// whenever the completer's w.cur is not the parent) touches the shared
	// atomic, by decrementing the parent's children counter below zero. The
	// frame's outstanding-children count is therefore the sum
	// frameKids + children.Load(), exact at all times: frameKids ≥ 0 is
	// spawned minus locally-completed, children ≤ 0 is minus
	// remotely-completed. execute saves and zeroes frameKids around every
	// nested task, so the field always belongs to w.cur's frame.
	frameKids int32

	freeList   *Task
	freeLen    int // tasks on freeList (caps recycling; slab.go)
	rng        xrand.Rand
	reqScratch []int

	// Cached empty-sweep state for the work-presence epoch (epoch.go).
	// Owner only: sweepValid marks that the last full steal sweep, taken
	// at shard epoch sweepEpoch, found every victim empty.
	sweepEpoch uint64
	sweepValid bool

	stats workerStats
	cache statCache // batched spawned/executed increments (owner-only)

	deque    deque
	adaptive atomic.Pointer[Adaptive]
	comb     sync.Mutex // combiner election lock (request.go)
	reqs     []request  // request box; slot i belongs to worker i
}

// noteSpawned counts one task creation against the worker's increment
// cache; the published atomic advances every statFlushEvery increments and
// at the flush points (idle, park, root completion, exit). This is the
// batched-counter optimization: the amortized cost per task is one plain
// increment instead of a LOCK-prefixed RMW.
func (w *Worker) noteSpawned() {
	c := &w.cache
	if c.pending == 0 {
		c.dirty.Store(true)
	}
	c.spawned++
	c.pending++
	if c.pending >= statFlushEvery {
		w.flushStats()
	}
}

// noteExecuted counts one executed task body (see noteSpawned) and
// attributes it to j's per-job counters through the same cache: while the
// worker keeps executing tasks of one job — the common case, a tree of
// spawns — the attribution is a plain private increment, and the shared
// jobfail.Counters RMW is paid once per batch, job switch or idle
// transition instead of once per task. Job.Stats consequently reads an
// approximate (monotone lower-bound) Executed while the job is in flight;
// see Job.Stats for the exactness contract.
func (w *Worker) noteExecuted(j *Job) {
	c := &w.cache
	if c.pending == 0 {
		c.dirty.Store(true)
	}
	c.executed++
	c.pending++
	if j != c.job {
		w.switchJobCache(j)
	}
	if j != nil {
		c.jobExecuted++
	}
	if c.pending >= statFlushEvery {
		w.flushStats()
	}
}

// switchJobCache publishes the cached per-job executed batch of the
// previous job and re-keys the cache to j. Out of the inlined hot path:
// it runs once per job switch (a worker interleaving two jobs' tasks),
// not once per task.
func (w *Worker) switchJobCache(j *Job) {
	c := &w.cache
	if c.job != nil {
		c.job.counts.AddExecuted(c.jobExecuted)
	}
	c.job = j
	c.jobExecuted = 0
}

// spawnedTotal is the worker's spawn count including the unpublished
// cache; owner-only (the adaptive splitter uses it to compute exact
// rollback deltas).
func (w *Worker) spawnedTotal() int64 {
	return w.stats.spawned.Load() + w.cache.spawned
}

// flushStats publishes the worker's cached increments into the padded
// atomics any goroutine may read. Owner-only; called every statFlushEvery
// increments and whenever the worker transitions toward idleness, so a
// quiescent pool always has fully published counters. A shard with siblings
// also advances its progress epoch here — one shared add per published
// executed batch, not per task — which is how the health supervisor tells a
// busy shard from a wedged one without touching the task path. A one-shard
// fleet has no supervisor (health.go) and skips the add.
func (w *Worker) flushStats() {
	c := &w.cache
	if c.spawned != 0 {
		w.stats.spawned.Add(c.spawned)
		c.spawned = 0
	}
	if c.executed != 0 {
		w.stats.executed.Add(c.executed)
		c.executed = 0
		if rt := w.rt; rt.shardTotal > 1 {
			rt.progress.Add(1)
		}
	}
	if c.job != nil {
		// Publish the per-job executed batch and drop the job pointer: a
		// worker going idle must neither hold back attribution (the
		// flush-at-park contract behind Job.Stats' quiescent exactness)
		// nor keep a completed job reachable.
		c.job.counts.AddExecuted(c.jobExecuted)
		c.job = nil
		c.jobExecuted = 0
	}
	c.pending = 0
	c.dirty.Store(false)
}

// ID returns the worker index in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// NumWorkers returns the number of workers of the runtime this worker
// belongs to.
func (w *Worker) NumWorkers() int { return len(w.rt.workers) }

// Runtime returns the runtime this worker belongs to.
func (w *Worker) Runtime() *Runtime { return w.rt }

// Spawn creates a child task of the current task and enqueues it on this
// worker's deque (non-blocking task creation, §II-B: the caller continues
// immediately). The child has no dataflow accesses; use SpawnTask for
// dependency-carrying tasks.
//
// Spawning into a job that has already failed cancels the child eagerly:
// no Task is allocated or enqueued, so a deep tree that fails early stops
// producing deque traffic at the spawn site instead of paying a push, a
// steal and a skip per dead task. The child is still accounted (Spawned and
// Cancelled both advance), keeping the Spawned == Executed + Cancelled
// invariant.
func (w *Worker) Spawn(fn func(*Worker)) {
	if w.cancelEagerly() {
		return
	}
	t := w.alloc()
	t.body = fn
	t.parent = w.cur
	if t.parent != nil {
		w.frameKids++ // owner-local; the atomic half only moves on remote completion
		t.job = t.parent.job
	}
	w.noteSpawned()
	w.deque.push(t)
	w.rt.maybeWake()
}

// cancelEagerly implements the eager-cancel fast path shared by Spawn and
// SpawnTask: if the current task's job has already failed, the child is
// counted as spawned-and-cancelled and never materialized. Execution-time
// skipping in execute remains as the backstop for tasks enqueued before the
// failure.
func (w *Worker) cancelEagerly() bool {
	cur := w.cur
	if cur == nil || cur.job == nil || !cur.job.aborted() {
		return false
	}
	w.noteSpawned()
	w.stats.cancelled.Add(1)
	cur.job.counts.Cancelled.Add(1)
	return true
}

// SpawnTask creates a child task that accesses shared data through the given
// handles and modes. The task becomes ready once every true dependency
// implied by the access modes is satisfied; until then it is retained by its
// predecessors and released onto the completing worker's deque.
//
// Like Spawn, SpawnTask on a failed job cancels the child eagerly: it is
// neither enqueued nor registered on its handles (safe because every other
// remaining task of the job is skipped too, so no live task can depend on
// the unregistered access).
func (w *Worker) SpawnTask(fn func(*Worker), accs ...Access) {
	if w.cancelEagerly() {
		return
	}
	t := w.alloc()
	t.body = fn
	t.parent = w.cur
	if t.parent != nil {
		w.frameKids++ // owner-local; the atomic half only moves on remote completion
		t.job = t.parent.job
	}
	w.noteSpawned()
	if len(accs) == 0 {
		w.deque.push(t)
		w.rt.maybeWake()
		return
	}
	t.flags |= flagHasAccess
	t.accs = append(t.accs[:0], accs...)
	t.wait.Store(1) // creation bias: not ready while registering
	for _, a := range t.accs {
		if a.Handle != nil {
			a.Handle.addAccess(t, a.Mode)
		}
	}
	if t.wait.Add(-1) == 0 {
		w.deque.push(t)
		w.rt.maybeWake()
	}
}

// Sync waits until every child task spawned so far by the current task, and
// transitively all their descendants, have completed. While waiting the
// worker schedules other ready work instead of blocking (work-first: the
// thread that would idle becomes a thief).
func (w *Worker) Sync() {
	if w.cur == nil {
		return
	}
	w.waitFrame(&w.cur.children)
}

// execute runs t to completion: body, implicit sync on children (the model
// is fully strict), then completion processing. A task whose job has
// already failed is cancelled: its body is skipped, but the completion
// bookkeeping (frame credit, successor release, job finish) still runs, so
// counters drain, dataflow frontiers stay consistent and the job always
// reaches Wait.
func (w *Worker) execute(t *Task) {
	// Any execution retires the cached empty sweep (epoch.go): the body may
	// run arbitrarily long and hand work to siblings in ways that do not
	// bump the epoch while nobody is parked, so a sweep taken before it is
	// too stale to skip on. One owner-private store; free on the hot path.
	w.sweepValid = false
	prev := w.cur
	prevKids := w.frameKids
	w.cur = t
	w.frameKids = 0
	// Loop-slice tasks are exempt from the skip: their body (loopRun)
	// observes the abort itself and instead of executing iterations credits
	// them back to the loop's pending count, which must drain to zero for
	// the ForEach caller to return. Skipping the task would strand its
	// interval and hang the loop.
	if j := t.job; j != nil && j.aborted() && t.flags&flagLoop == 0 {
		w.stats.cancelled.Add(1)
		j.counts.Cancelled.Add(1)
	} else {
		w.noteExecuted(t.job)
		w.runBody(t)
	}
	if w.frameKids+t.children.Load() != 0 {
		w.waitFrame(&t.children)
	}
	if t.children.Load() != 0 {
		// The frame drained with a nonzero residue: k children were stolen
		// and completed remotely (children == -k) while frameKids still
		// carried their spawn credits (frameKids == k). frameKids is about
		// to be overwritten by the restore below; rebalance children so the
		// descriptor recycles with the counter at rest. Conditional because
		// an atomic store compiles to an XCHG — in the common never-stolen
		// case the counter is already zero and the branch is free.
		t.children.Store(0)
	}
	w.cur = prev
	w.frameKids = prevKids
	w.complete(t)
}

// runBody invokes t's body with a panic barrier: a panicking body fails the
// task's job with a *PanicError (first panic wins) instead of unwinding the
// worker and killing the process. The abortUnwind sentinel — thrown to bail
// out of a body whose job already failed, e.g. by ForEach — is recognized
// and not counted as a user panic. A panic in a task with no job (only
// possible for a hand-built adaptive task outside any job) is rethrown:
// there is no handle to report it on.
func (w *Worker) runBody(t *Task) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if au, ok := r.(abortUnwind); ok {
			if t.job != nil {
				t.job.fail(au.err)
			}
			return
		}
		w.stats.panicked.Add(1)
		if t.job == nil {
			panic(r)
		}
		t.job.counts.Panicked.Add(1)
		t.job.fail(jobfail.Capture(r))
	}()
	// Chaos task-panic site: replace the body with an injected panic, inside
	// the barrier above so it takes the exact path a user panic takes. Loop
	// tasks are exempt — panicking before loopRun would strand the loop's
	// pending count (only runChunk's barrier credits iterations back); the
	// loop-panic site in runChunk covers that boundary instead.
	if cz := w.rt.chaos; cz != nil && t.flags&flagLoop == 0 && t.job != nil {
		if v, ok := cz.TaskPanic(); ok {
			panic(v)
		}
	}
	t.body(w)
}

// complete releases t's dataflow successors, credits its parent's frame,
// signals the job handle of an externally submitted root, and recycles the
// task object.
func (w *Worker) complete(t *Task) {
	if t.flags&flagHasAccess != 0 {
		t.mu.Lock()   //xk:allow(hotpath): per-task access mutex, dataflow tasks only
		t.done = true // contended only with a concurrent addAccess registration
		succ := t.succ
		t.mu.Unlock() //xk:allow(hotpath): see Lock above
		for _, s := range succ {
			if s.wait.Add(-1) == 0 {
				// The paper's ready-list optimization: a task made ready by
				// the completion of its last predecessor is enqueued on the
				// completer's deque, so a subsequent steal (or local pop) is
				// a constant-time operation rather than a stack traversal.
				w.stats.readyReleases.Add(1)
				w.deque.push(s)
				w.rt.maybeWake()
			}
		}
	}
	if p := t.parent; p != nil {
		if p == w.cur {
			// This worker is inside p's frame right now (w.cur is only ever
			// assigned by execute, and bodies run exactly once, so cur == p
			// means we are executing p): credit the owner-local half.
			w.frameKids--
		} else {
			// Stolen child, or a dataflow release completing away from its
			// parent's worker: the LOCK-prefixed decrement is the price of
			// remote completion only. The seq-cst RMW publishes the child's
			// effects to the parent's subsequent frame-drain load.
			p.children.Add(-1)
		}
	}
	if t.flags&flagRoot != 0 {
		// Publish this worker's cached counters before the job becomes
		// observable as done: a single-worker pool then satisfies the
		// quiescent Spawned == Executed + Cancelled invariant the moment
		// Wait returns (other workers publish on their own idle
		// transitions, microseconds behind).
		w.flushStats()
		j := t.job
		t.job = nil
		j.finish()
		// Roots recycle through rootPool, not the worker free list: their
		// descriptors are allocated by external submitters, which cannot
		// touch the owner-only lists, so completion hands them back to the
		// pool the submission path draws from.
		releaseRoot(t)
		return
	}
	w.recycle(t)
}

// waitFrame schedules ready work until the current frame's outstanding
// children drain: the owner-local w.frameKids (spawns minus local
// completions, ≥ 0) plus the shared balance in c (minus remote completions,
// ≤ 0) sum to the exact number of live children at every instant. Nested
// execute calls save, zero and restore frameKids around each task they run,
// so by the time schedOnce returns the field again belongs to the waiting
// frame and the re-check is sound.
func (w *Worker) waitFrame(c *atomic.Int32) {
	idle := 0
	for w.frameKids+c.Load() != 0 {
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
			time.Sleep(idleSleep) //xk:allow(hotpath): idle backoff — out of work by definition
		}
	}
}

// waitCounter schedules ready work until *c drains to zero. Used for plain
// shared counters with no owner-local half (the ForEach pending count);
// frame drains go through waitFrame.
func (w *Worker) waitCounter(c *atomic.Int32) {
	idle := 0
	for c.Load() != 0 {
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
			time.Sleep(idleSleep) //xk:allow(hotpath): idle backoff — out of work by definition
		}
	}
}

const (
	idleSpinBeforeSleep = 128
	idleSleep           = 20 * time.Microsecond
)

// schedOnce executes at most one ready task, preferring local work (pop,
// LIFO), then stealing (oldest task of a random victim), then a fresh root
// from the submission inbox. It reports whether a task was executed. The
// inbox comes last here so a worker waiting inside a frame leans toward
// finishing the computation it is part of before opening a new one; it is
// still polled so a pool saturated with waiters keeps accepting jobs.
func (w *Worker) schedOnce() bool {
	if t := w.deque.pop(); t != nil {
		w.execute(t)
		return true
	}
	if t, _ := w.trySteal(); t != nil {
		w.execute(t)
		return true
	}
	if t := w.rt.inbox.take(); t != nil {
		w.execute(t)
		return true
	}
	return false
}

// trySteal performs one round of steal attempts on randomly selected
// victims and returns a stolen task, or nil if the round failed. sawWork
// reports whether any probed victim even looked like it had work (non-empty
// deque or an open adaptive section): a round that swept every victim empty
// is the signal the backoff in run uses to park sooner instead of burning
// further probe sweeps on a mostly-idle pool. Every victim inspection is
// counted in StealProbes (one batched add per round), which is what makes
// the wasted-probe rate observable in /stats next to Parks.
func (w *Worker) trySteal() (t *Task, sawWork bool) {
	rt := w.rt
	n := len(rt.workers)
	if n == 1 {
		return nil, false
	}
	probes := int64(0)
	defer func() { w.stats.stealProbes.Add(probes) }()
	for attempt := 0; attempt < 2*n; attempt++ {
		v := rt.workers[w.rng.Intn(n)]
		if v == w {
			continue
		}
		probes++
		// Chaos steal-fail site: the probe is forced to miss, as if the
		// victim's deque emptied between selection and inspection. The probe
		// is still counted; sawWork is not set, so a fully blinded thief
		// backs off toward park like a thief on an idle pool.
		if cz := rt.chaos; cz != nil && cz.StealFail() {
			continue
		}
		// Cheap probe before posting a request.
		if v.deque.size() == 0 && v.adaptive.Load() == nil {
			continue
		}
		sawWork = true
		if rt.cfg.NoAggregation {
			if t := w.stealDirect(v); t != nil {
				return t, true
			}
			continue
		}
		if t, _ := w.stealFrom(v); t != nil {
			return t, true
		}
	}
	return nil, sawWork
}

// SetAdaptive installs ad as the splitter target for the task currently
// running on w and returns the previously installed value, which the caller
// must restore when the adaptive section ends. While installed, thieves that
// find w's deque empty call ad.Split to extract work from the running task
// (§II-D).
func (w *Worker) SetAdaptive(ad *Adaptive) *Adaptive {
	prev := w.adaptive.Load()
	if ad != nil && ad.job == nil && w.cur != nil {
		// Bind the splitter to the installing task's job so a panic inside
		// Split (which runs on a thief) is attributed to the right job, and
		// so tasks the splitter produces inherit the job's cancel scope.
		// Only a first install writes the binding: re-installing (or
		// restoring) an Adaptive a concurrent thief may still be splitting
		// must not race that thief's reads of ad.job. Consequently an
		// Adaptive value must not be reused across different jobs.
		ad.job = w.cur.job
	}
	w.adaptive.Store(ad)
	if ad != nil {
		w.rt.wakeAll()
	}
	return prev
}

// JobFailed reports (cheaply) whether the job of the task currently running
// on w has failed or been cancelled. Long-running or adaptive task bodies
// should poll it and return early when it flips: cancellation is
// cooperative for code already executing.
func (w *Worker) JobFailed() bool {
	return w.cur != nil && w.cur.job != nil && w.cur.job.aborted()
}

// JobErr returns the error of the current task's job: nil while the job is
// healthy, otherwise the first recorded failure.
func (w *Worker) JobErr() error {
	if w.cur == nil || w.cur.job == nil {
		return nil
	}
	return w.cur.job.Err()
}

// Context returns the context of the job the current task belongs to:
// derived from the SubmitCtx submission context (Background for Submit),
// carrying its deadline and values, and cancelled — with the failure as
// cause — the instant the job fails, is cancelled, or its parent context
// expires. Task bodies doing deadline-aware work (I/O, long kernels,
// blocking waits) should select on Context().Done() instead of polling
// JobFailed; the signal fires from any worker the instant a sibling
// panics, without waiting for this body to reach a scheduling point.
//
// For a task outside any job (a hand-built adaptive task) it returns
// context.Background(). The context is valid beyond the body's return —
// it is the job's, not the task's — but is cancelled once the job
// completes, successfully or not.
func (w *Worker) Context() context.Context {
	if w.cur != nil && w.cur.job != nil {
		return w.cur.job.Context()
	}
	return context.Background()
}

// NewAdaptiveTask wraps fn into a free-standing ready task, for returning
// from an Adaptive splitter. The task has no parent frame: user-level
// adaptive algorithms must track completion themselves (typically with a
// pending counter, as ForEach does), because the victim whose work was
// split may complete before the split-off tasks do.
func (w *Worker) NewAdaptiveTask(fn func(*Worker)) *Task {
	t := w.alloc()
	t.flags |= flagLoop
	t.body = fn
	w.noteSpawned()
	return t
}

// idleRoundsBeforePark is how many failed scheduling rounds a worker spins
// through (with Gosched between them) before parking on the condvar. A
// round whose steal sweep found every victim empty counts double — the
// steal-probe backoff: on a mostly-idle pool there is no evidence any work
// exists, so the worker stops paying 2N probes per round and goes to sleep
// in half the rounds, while a pool with observed-but-contended work keeps
// the full spin budget. park's final anyWork scan still closes the race
// with work produced during the last sweep.
const idleRoundsBeforePark = 4

// run is the main loop of a pool worker. At top level (no frame open) a
// fresh root from the inbox is preferred over stealing: a submitted job is
// guaranteed work, while a steal attempt may fail, and draining roots early
// exposes their parallelism to the other workers.
func (w *Worker) run() {
	rt := w.rt
	defer rt.wg.Done()   //xk:allow(hotpath): once per worker lifetime, not per task
	defer w.flushStats() // publish cached counters before Close's wg.Wait returns
	fails := 0
	for {
		if rt.stop.Load() {
			return
		}
		if cz := rt.chaos; cz != nil {
			w.chaosPause(cz) // stall / wedge sites; no-op on most draws
		}
		if t := w.deque.pop(); t != nil {
			w.execute(t)
			fails = 0
			continue
		}
		if t := rt.inbox.take(); t != nil {
			w.execute(t)
			fails = 0
			continue
		}
		// The steal sweep is gated by the work-presence epoch (epoch.go): if
		// the last sweep found every victim empty and nothing has been
		// published toward an idle pool since, 2N probes are provably futile
		// and the whole sweep is skipped. The epoch is read before the sweep
		// so a mid-sweep publication forces a re-sweep next round.
		var t *Task
		sawWork := false
		if w.sweepSkippable() {
			w.stats.epochSkips.Add(1)
		} else {
			epoch := rt.workEpoch.Load()
			t, sawWork = w.trySteal()
			if t == nil && !sawWork {
				w.noteEmptySweep(epoch)
			}
		}
		if t != nil {
			w.execute(t)
			fails = 0
			continue
		}
		// Cross-shard rebalancing is the last resort, tried only once the
		// whole home shard (deque, inbox, steal sweep) came up empty: pull a
		// queued root from a loaded sibling shard's inbox. Top level only —
		// a worker waiting inside a frame (waitCounter) leans toward
		// finishing the computation it is part of instead of opening a
		// sibling shard's job.
		if t := rt.stealRoot(); t != nil {
			w.execute(t)
			fails = 0
			continue
		}
		if fails == 0 {
			w.flushStats() // out of work: publish cached counters
		}
		fails++
		if !sawWork {
			fails++ // empty sweep: no evidence of work anywhere, park sooner
		}
		if fails < idleRoundsBeforePark {
			runtime.Gosched()
			continue
		}
		w.park()
		// Whatever park observed — a wake, an aborted park because anyWork
		// saw new tasks, or stop — the cached empty sweep predates it. This
		// invalidation is what makes the epoch skip safe for publications
		// that never bump (pushed while nobody was idle): park's scan sees
		// them, and the next round does a full sweep.
		w.sweepValid = false
		fails = 0
	}
}

// chaosSlice is the granularity of a chaos pause: the stalled worker sleeps
// in short slices, re-checking stop between them, so an injected stall or
// shard wedge can never hold Close hostage.
const chaosSlice = 500 * time.Microsecond

// chaosPause serves the worker-stall and shard-wedge chaos sites: a wedge
// window covering this worker's shard freezes it for the remainder of the
// window, otherwise a stall draw may pause it briefly. Counters are flushed
// first so the health supervisor sees progress up to the freeze — the point
// of the wedge site is that the *absence* of further progress is what trips
// the shard unhealthy. This is a deliberate injected slow path, hence the
// coldpath exemption.
//
//xk:coldpath
func (w *Worker) chaosPause(cz *chaos.Injector) {
	d := cz.WedgeRemaining(w.rt.shardIndex)
	if d == 0 {
		d = cz.WorkerStall()
		if d == 0 {
			return
		}
	}
	w.flushStats()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && !w.rt.stop.Load() {
		time.Sleep(chaosSlice)
	}
}

// park blocks the worker until new work may exist. A final scan of all
// deques after advertising idleness closes the race with concurrent pushes.
// The condvar handoff is the point of the function: parking is the
// deliberate out-of-work slow path, hence the coldpath exemption.
//
//xk:coldpath
func (w *Worker) park() {
	w.flushStats() // a parked worker's counters are fully published
	rt := w.rt
	rt.idle.Add(1)
	w.stats.parks.Add(1)
	// The abort scan covers sibling shards too: cross-shard work published
	// before idle was advertised must not strand this worker asleep (the
	// fleet router's nudge only wakes workers it can see are idle).
	if rt.anyWork() || rt.siblingWork() || rt.stop.Load() {
		rt.idle.Add(-1)
		return
	}
	rt.parkMu.Lock()
	for rt.wakePending == 0 && !rt.stop.Load() {
		rt.parkCond.Wait()
	}
	if rt.wakePending > 0 {
		rt.wakePending--
	}
	rt.parkMu.Unlock()
	rt.idle.Add(-1)
}
