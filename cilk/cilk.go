// Package cilk is a compact Cilk-style fork-join scheduler, reimplemented
// from the design of Cilk-5 (Frigo, Leiserson, Randall, PLDI 1998): one
// worker per core, a T.H.E.-protocol deque per worker, random work stealing
// of the oldest task, and the work-first principle (the spawning worker
// executes children depth-first; thieves take the shallow, large tasks).
//
// It exists as the Cilk+ comparator of the paper's Fig. 1: a scheduler that
// supports only independent task creation — no dataflow dependencies, no
// adaptive tasks, no parallel loops. Differences from the X-Kaapi runtime in
// this module are intentional and mirror the real systems: tasks are
// heap-allocated per spawn (Cilk allocates frames), there is no steal-request
// aggregation (each thief locks the victim's deque), and no splitter
// machinery exists.
//
// Like the X-Kaapi runtime in this module, the pool accepts concurrent root
// submissions: Pool.Submit injects independent computations from any
// goroutine and Pool.Run is Submit plus Job.Wait.
package cilk

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/jobfail"
)

// ErrClosed is the error of a job rejected because the pool was already
// closing: Submit after Close returns a pre-failed Job instead of
// panicking.
var ErrClosed = jobfail.ErrClosed

// ErrCanceled is the failure of a job abandoned with Job.Cancel.
var ErrCanceled = jobfail.ErrCanceled

// PanicError is the error a job fails with when a task body panics: the
// pool captures the panic (first one wins), cancels the job's remaining
// tasks and survives. It is an alias of the one shared definition in
// internal/jobfail — the scheduling cost model of this comparator is
// intentionally its own, the failure protocol is not.
type (
	PanicError = jobfail.PanicError
)

// task is a spawned closure plus the frame bookkeeping for sync.
type task struct {
	fn       func(*Worker)
	parent   *task
	children atomic.Int32
	job      *Job // owning job, inherited from the parent (failure scope)
	root     bool // completion of this task finishes the job
}

// Job is the completion handle of one submitted root computation. A job
// fails when one of its task bodies panics (recorded as a *PanicError,
// first panic wins) or when it is cancelled; a failed job's remaining
// tasks are skipped while the frame bookkeeping still drains, so the job
// always completes. The failure state machine is the shared jobfail.State.
type Job struct {
	st jobfail.State
}

// Wait blocks until the job's task tree has fully drained, then returns
// the job's error: nil on success, a *PanicError if a body panicked,
// ErrCanceled after Cancel, or ErrClosed for a rejected submission. Call
// it only from outside the pool; a task body blocking here stalls its
// worker.
func (j *Job) Wait() error { return j.st.Wait() }

// Err returns the job's failure without blocking: nil while the job is
// healthy, otherwise the first recorded error.
func (j *Job) Err() error { return j.st.Err() }

// Cancel abandons the job: tasks that have not started are skipped and
// Wait returns ErrCanceled. Bodies already running finish normally (or
// return early by watching Worker.Context).
func (j *Job) Cancel() { j.st.Cancel() }

// Context returns the job's context, cancelled the instant the job fails
// or is cancelled; see Worker.Context for use inside task bodies.
func (j *Job) Context() context.Context { return j.st.Context() }

// fail records the first failure; later ones and post-completion ones are
// ignored.
func (j *Job) fail(err error) { j.st.Fail(err) }

// Pool is a set of workers executing fork-join computations. Many root
// computations may be submitted concurrently from any goroutines; they all
// share the same workers.
type Pool struct {
	workers []*Worker

	inboxMu   sync.Mutex
	inboxQ    []*task
	inboxHead int
	inboxN    atomic.Int64

	jobsMu   sync.Mutex
	jobsCond *sync.Cond
	jobsLive int
	closing  bool // guarded by jobsMu

	idle        atomic.Int32
	parkMu      sync.Mutex
	parkCond    *sync.Cond
	wakePending int

	stop atomic.Bool
	wg   sync.WaitGroup
}

// Worker is the execution context passed to task bodies.
type Worker struct {
	id   int
	pool *Pool
	cur  *task
	rng  uint64

	mu   sync.Mutex // protects buf for thieves; owner locks on conflict
	head atomic.Int64
	tail atomic.Int64
	buf  atomic.Pointer[[]*task]
}

// NewPool creates a pool with n workers (GOMAXPROCS(0) if n <= 0), each a
// plain goroutine — no OS-thread lock, the one worker model all four
// schedulers of the Fig. 1 table share; work reaches them through Submit or
// Run.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.parkCond = sync.NewCond(&p.parkMu)
	p.jobsCond = sync.NewCond(&p.jobsMu)
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		w := &Worker{id: i, pool: p, rng: uint64(i)*0x9E3779B97F4A7C15 + 0x853C49E6748FEA9B}
		buf := make([]*task, 256)
		w.buf.Store(&buf)
		p.workers[i] = w
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.workers[i].loop()
	}
	return p
}

// Close drains in-flight jobs, then stops and joins the workers. The
// closing flag flips under jobsMu so a racing Submit either registers
// before the drain or panics — it can never strand a job in a dead pool.
func (p *Pool) Close() {
	p.jobsMu.Lock()
	if p.closing {
		p.jobsMu.Unlock()
		return
	}
	p.closing = true
	for p.jobsLive > 0 {
		p.jobsCond.Wait()
	}
	p.jobsMu.Unlock()
	p.stop.Store(true)
	p.parkMu.Lock()
	p.wakePending += len(p.workers)
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
	p.wg.Wait()
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// Run submits root as an independent computation, waits for it and returns
// its error; see Submit. Concurrent Runs share the pool.
func (p *Pool) Run(root func(*Worker)) error {
	return p.Submit(root).Wait()
}

// RunCtx is Run bound to a context: if ctx is cancelled before the
// computation completes, the job fails with ctx's error and its remaining
// tasks are skipped.
func (p *Pool) RunCtx(ctx context.Context, root func(*Worker)) error {
	return p.SubmitCtx(ctx, root).Wait()
}

// Submit enqueues root as an independent root computation and returns its
// handle without waiting. Any goroutine outside the pool may call it
// concurrently: roots are injected through an MPSC inbox (external callers
// must not touch the owner end of a worker deque) and claimed by idle
// workers. Submitting to a closed pool returns a pre-failed Job with
// ErrClosed instead of panicking.
func (p *Pool) Submit(root func(*Worker)) *Job {
	return p.SubmitCtx(context.Background(), root)
}

// SubmitCtx is Submit bound to a context: cancelling ctx (or its deadline
// expiring) fails the job, skips its not-yet-started tasks, and cancels
// the job context every task body sees through Worker.Context.
func (p *Pool) SubmitCtx(ctx context.Context, root func(*Worker)) *Job {
	j := &Job{}
	p.jobsMu.Lock()
	if p.closing {
		p.jobsMu.Unlock()
		// Init without the parent: rejection reports ErrClosed even when
		// ctx is already cancelled (first error wins).
		j.st.Init(nil)
		j.st.Fail(ErrClosed)
		j.st.Finish()
		return j
	}
	p.jobsLive++
	p.jobsMu.Unlock()
	j.st.Init(ctx)
	p.inboxMu.Lock()
	p.inboxQ = append(p.inboxQ, &task{fn: root, job: j, root: true})
	p.inboxN.Add(1)
	p.inboxMu.Unlock()
	p.maybeWake()
	return j
}

// takeSubmitted claims the oldest submitted root, or returns nil. The
// head index makes each take O(1); the buffer resets when it drains.
func (p *Pool) takeSubmitted() *task {
	if p.inboxN.Load() == 0 {
		return nil
	}
	p.inboxMu.Lock()
	var t *task
	if p.inboxHead < len(p.inboxQ) {
		t = p.inboxQ[p.inboxHead]
		p.inboxQ[p.inboxHead] = nil
		p.inboxHead++
		if p.inboxHead == len(p.inboxQ) {
			p.inboxQ = p.inboxQ[:0]
			p.inboxHead = 0
		}
		p.inboxN.Add(-1)
	}
	p.inboxMu.Unlock()
	return t
}

// ID returns the worker index.
func (w *Worker) ID() int { return w.id }

// Context returns the context of the job the current task belongs to,
// cancelled the instant the job fails (sibling panic), is cancelled, or
// its submission context expires. Long-running bodies select on
// Context().Done() for prompt cooperative cancellation. Outside any job it
// returns context.Background().
func (w *Worker) Context() context.Context {
	if w.cur != nil && w.cur.job != nil {
		return w.cur.job.Context()
	}
	return context.Background()
}

// Spawn creates a child task. The caller continues immediately; the child
// runs later on this worker (LIFO) or on a thief (oldest first).
func (w *Worker) Spawn(fn func(*Worker)) {
	t := &task{fn: fn, parent: w.cur}
	if t.parent != nil {
		t.parent.children.Add(1)
		t.job = t.parent.job
	}
	w.push(t)
	w.pool.maybeWake()
}

// Sync waits for all children spawned so far by the current task, scheduling
// other work while it waits.
func (w *Worker) Sync() {
	if w.cur == nil {
		return
	}
	w.waitChildren(w.cur)
}

func (w *Worker) execute(t *task) {
	prev := w.cur
	w.cur = t
	// A task whose job already failed is cancelled: the body is skipped
	// but the frame bookkeeping still drains.
	if t.job == nil || !t.job.st.Failed() {
		w.runBody(t)
	}
	if t.children.Load() != 0 {
		w.waitChildren(t)
	}
	w.cur = prev
	if t.parent != nil {
		t.parent.children.Add(-1)
	}
	if t.root {
		t.job.st.Finish()
		p := w.pool
		p.jobsMu.Lock()
		p.jobsLive--
		if p.jobsLive == 0 {
			p.jobsCond.Broadcast()
		}
		p.jobsMu.Unlock()
	}
}

// runBody invokes t's body behind a panic barrier: a panicking body fails
// the owning job instead of unwinding (and killing) the worker.
func (w *Worker) runBody(t *task) {
	defer func() {
		if r := recover(); r != nil {
			if t.job == nil {
				panic(r) // no handle to report on
			}
			t.job.fail(jobfail.Capture(r))
		}
	}()
	t.fn(w)
}

func (w *Worker) waitChildren(t *task) {
	idle := 0
	for t.children.Load() != 0 {
		if w.schedOnce() {
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

func (w *Worker) schedOnce() bool {
	if t := w.pop(); t != nil {
		w.execute(t)
		return true
	}
	if t := w.steal(); t != nil {
		w.execute(t)
		return true
	}
	if t := w.pool.takeSubmitted(); t != nil {
		w.execute(t)
		return true
	}
	return false
}

func (w *Worker) steal() *task {
	p := w.pool
	n := len(p.workers)
	if n == 1 {
		return nil
	}
	for attempt := 0; attempt < 2*n; attempt++ {
		w.rng ^= w.rng >> 12
		w.rng ^= w.rng << 25
		w.rng ^= w.rng >> 27
		v := p.workers[int(w.rng%uint64(n))]
		if v == w || v.tail.Load()-v.head.Load() <= 0 {
			continue
		}
		v.mu.Lock()
		t := v.stealTopLocked()
		v.mu.Unlock()
		if t != nil {
			return t
		}
	}
	return nil
}

func (w *Worker) loop() {
	p := w.pool
	defer p.wg.Done()
	fails := 0
	for {
		if p.stop.Load() {
			return
		}
		if w.schedOnce() {
			fails = 0
			continue
		}
		fails++
		if fails < 4 {
			runtime.Gosched()
			continue
		}
		w.park()
		fails = 0
	}
}

func (w *Worker) park() {
	p := w.pool
	p.idle.Add(1)
	if p.anyWork() || p.stop.Load() {
		p.idle.Add(-1)
		return
	}
	p.parkMu.Lock()
	for p.wakePending == 0 && !p.stop.Load() {
		p.parkCond.Wait()
	}
	if p.wakePending > 0 {
		p.wakePending--
	}
	p.parkMu.Unlock()
	p.idle.Add(-1)
}

func (p *Pool) maybeWake() {
	if p.idle.Load() == 0 {
		return
	}
	p.parkMu.Lock()
	if p.wakePending < int(p.idle.Load()) {
		p.wakePending++
		p.parkCond.Signal()
	}
	p.parkMu.Unlock()
}

func (p *Pool) anyWork() bool {
	if p.inboxN.Load() > 0 {
		return true
	}
	for _, v := range p.workers {
		if v.tail.Load()-v.head.Load() > 0 {
			return true
		}
	}
	return false
}

// --- T.H.E. deque (owner bottom, thief top) ---

func (w *Worker) push(t *task) {
	b := w.tail.Load()
	buf := *w.buf.Load()
	if b-w.head.Load() >= int64(len(buf)-1) {
		w.grow(b)
		buf = *w.buf.Load()
	}
	buf[b&int64(len(buf)-1)] = t
	w.tail.Store(b + 1)
}

func (w *Worker) grow(b int64) {
	w.mu.Lock()
	old := *w.buf.Load()
	nbuf := make([]*task, len(old)*2)
	for i := w.head.Load(); i < b; i++ {
		nbuf[i&int64(len(nbuf)-1)] = old[i&int64(len(old)-1)]
	}
	w.buf.Store(&nbuf)
	w.mu.Unlock()
}

func (w *Worker) pop() *task {
	b := w.tail.Load() - 1
	w.tail.Store(b)
	h := w.head.Load()
	if b < h {
		w.tail.Store(h)
		return nil
	}
	buf := *w.buf.Load()
	t := buf[b&int64(len(buf)-1)]
	if b > h {
		return t
	}
	w.mu.Lock()
	h = w.head.Load()
	if h <= b {
		w.head.Store(b + 1)
		w.tail.Store(b + 1)
		w.mu.Unlock()
		return t
	}
	w.tail.Store(h)
	w.mu.Unlock()
	return nil
}

func (w *Worker) stealTopLocked() *task {
	h := w.head.Load()
	if h >= w.tail.Load() {
		return nil
	}
	buf := *w.buf.Load()
	t := buf[h&int64(len(buf)-1)]
	w.head.Store(h + 1)
	if w.head.Load() > w.tail.Load() {
		w.head.Store(h)
		return nil
	}
	return t
}
