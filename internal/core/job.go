package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xkaapi/internal/jobfail"
)

// Job is the handle of one externally submitted root task. A Job is created
// by Runtime.Submit or Runtime.SubmitCtx, completes when the root body and
// every task transitively spawned from it have finished (or been cancelled),
// and can be waited on by any goroutine outside the pool.
//
// A job fails when a task body of its tree panics (the first panic wins and
// is recorded as a *PanicError), when its submission context is cancelled,
// or when Cancel is called. Once failed, the job's remaining tasks are
// cancelled: their bodies are skipped, but the completion bookkeeping still
// runs, so dataflow frontiers stay consistent and the job always finishes.
// The failure state machine itself — first-error-wins, sealing, the per-job
// context that fans cancellation out to running bodies — is the shared
// jobfail.State every engine in this module embeds.
type Job struct {
	st jobfail.State
	rt *Runtime

	// Per-job attribution of the task outcome counters (the pool-global
	// Stats remain the sum over workers). Atomics: tasks of one job execute
	// on many workers concurrently.
	counts jobfail.Counters
}

// JobStats is a snapshot of one job's task outcome counters, the per-job
// attribution of the pool-global Stats a multi-tenant service needs for
// per-request (or per-client) accounting: how many task bodies of this job
// ran, how many were skipped because the job had failed, and how many
// panicked.
type JobStats struct {
	Executed  int64 // task bodies of this job that ran
	Cancelled int64 // tasks skipped (at spawn or at execution) after the job failed
	Panicked  int64 // task bodies of this job that panicked
}

// Stats returns the job's task outcome counters. It may be called at any
// time, including while the job runs, and each counter is then a monotone
// non-decreasing lower bound of the truth: Executed is attributed through
// per-(worker, job) caches (see jobfail.Counters.AddExecuted), so a live
// snapshot can trail the real count by up to one batch per worker
// currently executing this job's tasks, while Cancelled and Panicked are
// bumped directly and stay exactly live. The snapshot is exact once the
// pool is quiescent for this job: every path a worker takes toward
// idleness — park, failed steal round, wait loops, root completion,
// worker exit — publishes its cache first, and the worker that completes
// the root flushes before the job becomes observable as done. In
// particular, on a single-worker pool the counts are exact the moment
// Wait returns; on a wider pool other workers' last batches land within
// their own idle transitions, microseconds behind.
func (j *Job) Stats() JobStats {
	executed, cancelled, panicked := j.counts.Snapshot()
	return JobStats{Executed: executed, Cancelled: cancelled, Panicked: panicked}
}

// Wait blocks until the job's whole task tree has completed, then returns
// the job's error: nil on success, a *PanicError if a task body panicked,
// the context error if the submission context was cancelled, ErrCanceled
// after Cancel, or ErrClosed if the job was rejected by a closing runtime.
//
// Wait must be called from outside the worker pool: a task body that blocks
// in Wait stalls its worker and can deadlock the runtime. From inside a
// task, spawn the work as a child and use Worker.Sync instead.
func (j *Job) Wait() error { return j.st.Wait() }

// Done reports (without blocking) whether the job has completed.
func (j *Job) Done() bool { return j.st.Done() }

// Err returns the job's failure without waiting: nil while the job is
// running and has not failed, otherwise the first recorded error.
func (j *Job) Err() error { return j.st.Err() }

// Cancel asks the runtime to abandon the job: tasks of the job that have
// not started yet are skipped, and Wait returns ErrCanceled. Tasks already
// executing run to completion (cancellation is cooperative; long bodies
// block on Context().Done() or poll Worker.JobFailed). Cancel after
// completion, or after another failure, is a no-op.
func (j *Job) Cancel() { j.st.Cancel() }

// Context returns the job's context: derived from the SubmitCtx submission
// context (context.Background for Submit), carrying its deadline and
// values, and cancelled — with the failure as cause — the instant the job
// fails or is cancelled. Task bodies reach it through Worker.Context; it is
// also available here so code holding only the Job handle (a server
// tracking in-flight requests, say) can select on the same signal. Note
// that the context is also cancelled when the job completes successfully
// (cause context.Canceled), so Done firing means "job over", not
// necessarily "job failed" — check Err to distinguish.
func (j *Job) Context() context.Context { return j.st.Context() }

// fail records err as the job's failure if it is the first one; later
// failures and failures after completion are ignored.
func (j *Job) fail(err error) { j.st.Fail(err) }

// aborted is the hot-path check task execution uses to decide whether to
// skip a body.
func (j *Job) aborted() bool { return j.st.Failed() }

// finish marks the job complete and credits the runtime's live-job count.
// It is called exactly once, by the worker completing the root task.
func (j *Job) finish() {
	err := j.st.Finish()
	rt := j.rt
	if err != nil {
		rt.noteFailed(err)
	}
	rt.liveRoots.Add(-1)
	rt.jobs.Finish()
}

// Submit enqueues fn as an independent root job on the pool and returns
// immediately with its handle. Any goroutine may call Submit, concurrently
// with other Submits and with running jobs: the task is injected through
// the runtime's inbox, never through a worker deque, so external callers
// obey the owner-only deque protocol. The job's task tree executes under
// the same fully strict model as RunRoot.
//
// Submitting to a closed (or closing) runtime does not panic: it returns a
// pre-failed Job whose Wait and Err report ErrClosed and whose task never
// runs.
//
// Submit is exactly SubmitCtx(context.Background(), fn): the ctx-first
// entry point is the one implementation, and Background costs nothing (a
// context with no Done channel never arms the cancellation hook).
func (rt *Runtime) Submit(fn func(*Worker)) *Job {
	return rt.SubmitCtx(context.Background(), fn)
}

// newRoot builds the job handle — its failure state bound to parent
// (Background if nil) — and its root task, and registers the job with the
// runtime. ok reports whether the runtime accepted it; on false the job is
// pre-failed with ErrClosed and already finished. On true the caller must
// call enqueueRoot(t) to make the root runnable. The parent-cancellation
// hook is armed inside Init, before the root can possibly be enqueued, so
// it is always installed before any worker can finish the job.
func (rt *Runtime) newRoot(parent context.Context, fn func(*Worker)) (j *Job, t *Task, ok bool) {
	if fn == nil {
		panic("core: Submit with nil function")
	}
	j = &Job{rt: rt}
	// Admission either registers the job before the drain (Close then
	// waits for it too) or refuses it; see internal/pool. The failure state
	// initializes after admission, so a refused job reports ErrClosed even
	// when the submission context is already cancelled.
	if !rt.jobs.Admit() {
		j.st.Reject()
		return j, nil, false
	}
	rt.liveRoots.Add(1)
	j.st.Init(parent)
	t = newRootTask() // external path: worker free lists are owner-only, roots recycle via rootPool
	t.body = fn
	t.job = j
	t.flags = flagRoot
	return j, t, true
}

// enqueueRoot injects a registered root task through the inbox and wakes a
// worker for it. The chaos inbox-delay site may defer the delivery: the job
// is already registered (admitted, so a concurrent Close waits for it),
// only its appearance in the inbox is late — modelling a slow submission
// path without touching the admission bookkeeping.
func (rt *Runtime) enqueueRoot(t *Task) {
	rt.extSpawned.Add(1)
	if cz := rt.chaos; cz != nil {
		if d := cz.InboxDelay(); d > 0 {
			time.AfterFunc(d, func() {
				rt.inbox.Put(t)
				rt.maybeWake()
			})
			return
		}
	}
	rt.inbox.Put(t)
	rt.maybeWake()
}

// SubmitCtx is Submit bound to a context: if ctx is cancelled before the
// job completes, the job fails with ctx.Err() and its remaining tasks are
// skipped. A context already cancelled at submission still returns a Job
// (its root is enqueued but its body never runs), so callers have one code
// path: check Wait's error. The job's own context (Job.Context,
// Worker.Context) is derived from ctx, so task bodies see its deadline and
// values and unblock the instant the job fails for any reason.
//
// Cancellation is watcher-free: instead of a goroutine per job parked on
// ctx.Done() (which a server submitting one job per request would multiply
// by the whole in-flight set), the job's failure state registers a
// context.AfterFunc — a callback on the context's own cancel/timer
// machinery — before its root is enqueued, and finish deregisters it. A
// context-bound job therefore costs no goroutine at all, and an uncancelled
// one leaves nothing behind.
func (rt *Runtime) SubmitCtx(ctx context.Context, fn func(*Worker)) *Job {
	j, t, ok := rt.newRoot(ctx, fn)
	if ok {
		rt.enqueueRoot(t)
	}
	return j
}

// Wait blocks until every job submitted so far has completed, then returns
// the aggregated outcome of the drain: nil if no job failed since the last
// Wait, otherwise an errors.Join of the failures recorded since then (so
// errors.Is/As reach each *PanicError or cancellation cause). At most
// maxDrainErrs individual errors are retained between drains; further
// failures are elided into a summary error carrying their count. Like
// Job.Wait it must be called from outside the pool. Each failure is
// reported by exactly one Wait drain; individual Job handles and CloseErr
// observe failures independently of Wait.
func (rt *Runtime) Wait() error {
	rt.jobs.Drain()
	rt.failMu.Lock()
	errs := rt.drainErrs
	dropped := rt.drainDropped
	rt.drainErrs = nil
	rt.drainDropped = 0
	rt.failMu.Unlock()
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("core: %d more job failure(s) elided", dropped))
	}
	return errors.Join(errs...)
}
