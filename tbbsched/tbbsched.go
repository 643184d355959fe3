// Package tbbsched reimplements the scheduling design of Intel Threading
// Building Blocks (Reinders 2007) as the TBB comparator of the paper's
// Fig. 1: a task-tree scheduler with reference-counted join, per-worker
// deques, and loop templates with an auto-partitioner.
//
// The per-task cost model intentionally matches TBB's rather than X-Kaapi's:
// every spawn allocates a task node on the heap, task bodies are dispatched
// through an interface (TBB uses virtual task::execute), a parent's pending
// count is maintained with atomic reference counting, and deque operations
// take the deque lock (TBB's early deques were lock-based). Those constants
// are why the paper measures TBB at a ~26x slowdown on fine-grain Fibonacci
// versus ~8x for X-Kaapi.
package tbbsched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/jobfail"
)

// ErrClosed is the error of a job rejected because the scheduler was
// already closing: Submit after Close returns a pre-failed Job instead of
// panicking.
var ErrClosed = jobfail.ErrClosed

// ErrCanceled is the failure of a job abandoned with Job.Cancel. It mirrors
// TBB's task-group cancellation: queued tasks of the group are skipped.
var ErrCanceled = jobfail.ErrCanceled

// PanicError is the error a job fails with when a task body panics — the
// analogue of TBB capturing an exception in task::execute and rethrowing it
// from wait_for_all, except the first panic is reported as an error. It is
// an alias of the one shared definition in internal/jobfail: the per-task
// cost model of this comparator is intentionally TBB's, the failure
// protocol is the module's single state machine.
type (
	PanicError = jobfail.PanicError
)

// Task is the unit of work, dispatched through an interface as in TBB.
type Task interface {
	Execute(c *Context)
}

// FuncTask adapts a function to the Task interface.
type FuncTask func(c *Context)

// Execute runs the function.
func (f FuncTask) Execute(c *Context) { f(c) }

// node wraps a user Task with tree bookkeeping.
type node struct {
	t      Task
	parent *node
	refs   atomic.Int32 // pending children
	job    *Job         // owning job, inherited from the parent (failure scope)
	root   bool         // completion of this node finishes the job
}

// Job is the completion handle of one submitted root task tree. A job
// fails when one of its task bodies panics (recorded as a *PanicError,
// first panic wins) or when it is cancelled; a failed job's queued tasks
// are skipped while the reference counting still drains, so the job always
// completes. The failure state machine is the shared jobfail.State.
type Job struct {
	st jobfail.State
}

// Wait blocks until the job's task tree has fully drained, then returns
// the job's error: nil on success, a *PanicError if a body panicked,
// ErrCanceled after Cancel, or ErrClosed for a rejected submission. Call
// it only from outside the pool.
func (j *Job) Wait() error { return j.st.Wait() }

// Err returns the job's failure without blocking: nil while the job is
// healthy, otherwise the first recorded error.
func (j *Job) Err() error { return j.st.Err() }

// Cancel abandons the job: tasks that have not started are skipped and
// Wait returns ErrCanceled. Bodies already running finish normally (or
// return early by watching Context.Ctx).
func (j *Job) Cancel() { j.st.Cancel() }

// Context returns the job's context, cancelled the instant the job fails
// or is cancelled; see Context.Ctx for use inside task bodies.
func (j *Job) Context() context.Context { return j.st.Context() }

// fail records the first failure; later ones and post-completion ones are
// ignored.
func (j *Job) fail(err error) { j.st.Fail(err) }

// Scheduler owns the worker pool. Root task trees may be submitted
// concurrently from any goroutines and share the same workers.
type Scheduler struct {
	ctxs []*Context

	inboxMu   sync.Mutex
	inboxQ    []*node
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

// Context is a worker; task bodies receive the context they run on.
type Context struct {
	id    int
	sched *Scheduler
	cur   *node
	rng   uint64

	mu    sync.Mutex
	queue []*node // locked deque: owner pops the back, thieves the front
}

// NewScheduler creates a scheduler with n workers (GOMAXPROCS(0) if n <= 0),
// each a plain goroutine with no OS-thread lock, as in xkaapi and cilk.
func NewScheduler(n int) *Scheduler {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{}
	s.parkCond = sync.NewCond(&s.parkMu)
	s.jobsCond = sync.NewCond(&s.jobsMu)
	s.ctxs = make([]*Context, n)
	for i := range s.ctxs {
		s.ctxs[i] = &Context{id: i, sched: s, rng: uint64(i)*0x9E3779B97F4A7C15 + 1}
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.ctxs[i].loop()
	}
	return s
}

// Close drains in-flight jobs, then stops and joins the workers. The
// closing flag flips under jobsMu so a racing Submit either registers
// before the drain or panics — it can never strand a job in a dead pool.
func (s *Scheduler) Close() {
	s.jobsMu.Lock()
	if s.closing {
		s.jobsMu.Unlock()
		return
	}
	s.closing = true
	for s.jobsLive > 0 {
		s.jobsCond.Wait()
	}
	s.jobsMu.Unlock()
	s.stop.Store(true)
	s.parkMu.Lock()
	s.wakePending += len(s.ctxs)
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
	s.wg.Wait()
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return len(s.ctxs) }

// Run submits root as an independent task tree, waits for it and returns
// its error; see Submit. Concurrent Runs share the pool.
func (s *Scheduler) Run(root func(c *Context)) error {
	return s.Submit(FuncTask(root)).Wait()
}

// RunCtx is Run bound to a context: if ctx is cancelled before the tree
// completes, the job fails with ctx's error and its queued tasks are
// skipped.
func (s *Scheduler) RunCtx(ctx context.Context, root func(c *Context)) error {
	return s.SubmitCtx(ctx, FuncTask(root)).Wait()
}

// Submit enqueues t as an independent root task tree and returns its handle
// without waiting. Any goroutine outside the pool may call it concurrently;
// roots are claimed by idle workers from an MPSC inbox. Submitting to a
// closed scheduler returns a pre-failed Job with ErrClosed instead of
// panicking.
func (s *Scheduler) Submit(t Task) *Job {
	return s.SubmitCtx(context.Background(), t)
}

// SubmitCtx is Submit bound to a context: cancelling ctx (or its deadline
// expiring) fails the job, skips its queued tasks, and cancels the job
// context every task body sees through Context.Ctx.
func (s *Scheduler) SubmitCtx(ctx context.Context, t Task) *Job {
	j := &Job{}
	s.jobsMu.Lock()
	if s.closing {
		s.jobsMu.Unlock()
		// Init without the parent: rejection reports ErrClosed even when
		// ctx is already cancelled (first error wins).
		j.st.Init(nil)
		j.st.Fail(ErrClosed)
		j.st.Finish()
		return j
	}
	s.jobsLive++
	s.jobsMu.Unlock()
	j.st.Init(ctx)
	s.inboxMu.Lock()
	s.inboxQ = append(s.inboxQ, &node{t: t, job: j, root: true})
	s.inboxN.Add(1)
	s.inboxMu.Unlock()
	s.maybeWake()
	return j
}

// takeSubmitted claims the oldest submitted root, or returns nil. The
// head index makes each take O(1); the buffer resets when it drains.
func (s *Scheduler) takeSubmitted() *node {
	if s.inboxN.Load() == 0 {
		return nil
	}
	s.inboxMu.Lock()
	var n *node
	if s.inboxHead < len(s.inboxQ) {
		n = s.inboxQ[s.inboxHead]
		s.inboxQ[s.inboxHead] = nil
		s.inboxHead++
		if s.inboxHead == len(s.inboxQ) {
			s.inboxQ = s.inboxQ[:0]
			s.inboxHead = 0
		}
		s.inboxN.Add(-1)
	}
	s.inboxMu.Unlock()
	return n
}

// ID returns the worker index.
func (c *Context) ID() int { return c.id }

// Ctx returns the context of the job the current task belongs to,
// cancelled the instant the job fails (sibling panic), is cancelled, or
// its submission context expires. Long-running Execute bodies select on
// Ctx().Done() for prompt cooperative cancellation. Outside any job it
// returns context.Background().
func (c *Context) Ctx() context.Context {
	if c.cur != nil && c.cur.job != nil {
		return c.cur.job.Context()
	}
	return context.Background()
}

// Spawn allocates a child task of the current task and enqueues it.
func (c *Context) Spawn(t Task) {
	n := &node{t: t, parent: c.cur}
	if n.parent != nil {
		n.parent.refs.Add(1)
		n.job = n.parent.job
	}
	c.mu.Lock()
	c.queue = append(c.queue, n)
	c.mu.Unlock()
	c.sched.maybeWake()
}

// Wait blocks until all children spawned so far by the current task have
// completed (TBB's wait_for_all), executing other tasks meanwhile.
func (c *Context) Wait() {
	if c.cur == nil {
		return
	}
	idle := 0
	for c.cur.refs.Load() != 0 {
		if c.schedOnce() {
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

func (c *Context) execute(n *node) {
	prev := c.cur
	c.cur = n
	// A node whose job already failed is cancelled: the body is skipped
	// but the reference counting still drains.
	if n.job == nil || !n.job.st.Failed() {
		c.runBody(n)
	}
	// Implicit wait_for_all: a task is not complete until its subtree is.
	idle := 0
	for n.refs.Load() != 0 {
		if c.schedOnce() {
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
	c.cur = prev
	if n.parent != nil {
		n.parent.refs.Add(-1)
	}
	if n.root {
		n.job.st.Finish()
		s := c.sched
		s.jobsMu.Lock()
		s.jobsLive--
		if s.jobsLive == 0 {
			s.jobsCond.Broadcast()
		}
		s.jobsMu.Unlock()
	}
}

// runBody dispatches the node's Task behind a panic barrier: a panicking
// Execute fails the owning job instead of unwinding (and killing) the
// worker.
func (c *Context) runBody(n *node) {
	defer func() {
		if r := recover(); r != nil {
			if n.job == nil {
				panic(r) // no handle to report on
			}
			n.job.fail(jobfail.Capture(r))
		}
	}()
	n.t.Execute(c)
}

func (c *Context) popLocal() *node {
	c.mu.Lock()
	var n *node
	if len(c.queue) > 0 {
		n = c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
	}
	c.mu.Unlock()
	return n
}

func (c *Context) stealFront() *node {
	c.mu.Lock()
	var n *node
	if len(c.queue) > 0 {
		n = c.queue[0]
		c.queue = c.queue[1:]
	}
	c.mu.Unlock()
	return n
}

func (c *Context) schedOnce() bool {
	if n := c.popLocal(); n != nil {
		c.execute(n)
		return true
	}
	s := c.sched
	nw := len(s.ctxs)
	for attempt := 0; nw > 1 && attempt < 2*nw; attempt++ {
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		v := s.ctxs[int(c.rng%uint64(nw))]
		if v == c {
			continue
		}
		if n := v.stealFront(); n != nil {
			c.execute(n)
			return true
		}
	}
	if n := s.takeSubmitted(); n != nil {
		c.execute(n)
		return true
	}
	return false
}

func (c *Context) loop() {
	s := c.sched
	defer s.wg.Done()
	fails := 0
	for {
		if s.stop.Load() {
			return
		}
		if c.schedOnce() {
			fails = 0
			continue
		}
		fails++
		if fails < 4 {
			runtime.Gosched()
			continue
		}
		c.park()
		fails = 0
	}
}

func (c *Context) park() {
	s := c.sched
	s.idle.Add(1)
	if s.anyWork() || s.stop.Load() {
		s.idle.Add(-1)
		return
	}
	s.parkMu.Lock()
	for s.wakePending == 0 && !s.stop.Load() {
		s.parkCond.Wait()
	}
	if s.wakePending > 0 {
		s.wakePending--
	}
	s.parkMu.Unlock()
	s.idle.Add(-1)
}

func (s *Scheduler) maybeWake() {
	if s.idle.Load() == 0 {
		return
	}
	s.parkMu.Lock()
	if s.wakePending < int(s.idle.Load()) {
		s.wakePending++
		s.parkCond.Signal()
	}
	s.parkMu.Unlock()
}

func (s *Scheduler) anyWork() bool {
	if s.inboxN.Load() > 0 {
		return true
	}
	for _, v := range s.ctxs {
		v.mu.Lock()
		n := len(v.queue)
		v.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// ParallelFor runs body over [lo, hi) using recursive range splitting in the
// style of TBB's parallel_for with the auto-partitioner: ranges split in two
// while they are wider than grain (grain <= 0 selects (hi-lo)/(4*workers)),
// bounding the number of tasks without an a-priori limit on parallelism.
func ParallelFor(c *Context, lo, hi, grain int, body func(lo, hi int)) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = (hi - lo) / (4 * c.sched.Workers())
		if grain < 1 {
			grain = 1
		}
	}
	var rec func(c *Context, lo, hi int)
	rec = func(c *Context, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			l, h := mid, hi
			c.Spawn(FuncTask(func(c *Context) { rec(c, l, h) }))
			hi = mid
		}
		body(lo, hi)
		c.Wait()
	}
	rec(c, lo, hi)
}
