package jobfail

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrClosed is the failure of a job rejected because its scheduler was
// already closing: submission after Close yields a pre-failed handle
// reporting ErrClosed instead of panicking.
var ErrClosed = errors.New("xkaapi: runtime closed")

// ErrCanceled is the failure of a job abandoned with Cancel. Jobs cancelled
// through a context fail with the context's own error instead.
var ErrCanceled = errors.New("xkaapi: job canceled")

// PanicError is the error a job fails with when one of its task bodies —
// fork-join child, dataflow task, loop chunk, adaptive splitter, SPMD
// region thread — panics. The owning job records the first panic (with the
// stack captured at the panic site), cancels the job's remaining tasks, and
// the worker pool survives: the panic never propagates past the runtime.
type PanicError struct {
	// Value is the value the task body panicked with.
	Value any
	// Stack is the goroutine stack captured at recovery, which includes the
	// frames of the panic site.
	Stack []byte
}

// Capture wraps a recovered value into a *PanicError; it must be called
// from the deferred function that recovered it so the stack still holds the
// panic frames.
func Capture(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Error formats the panic value followed by the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task panicked: %v\n\n%s", e.Value, e.Stack)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As see through a panic(err).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// State is the failure state machine of one failure domain — a job, a
// parallel region, a QUARK run. The zero value is not ready: call Init
// first, Finish exactly once when the domain's bookkeeping has drained.
// All other methods may be called concurrently from any goroutine.
//
// The completion channel and the derived context are allocated lazily: a
// domain that succeeds without anyone selecting on DoneChan or asking for
// Context — the common case for a fire-and-forget submission on a healthy
// pool — costs zero allocations beyond its own struct. This is part of the
// scheduler's sub-40ns spawn/submit budget (see core/doc.go, "The spawn
// fast path"); the laziness is invisible in the API.
type State struct {
	failed   atomic.Bool // fast-path flag mirroring err != nil
	finished atomic.Bool // Finish ran (lock-free Done)
	mu       sync.Mutex
	err      error // first failure; immutable once set
	sealed   bool  // Finish ran: late Fail calls are ignored

	// done is closed by Finish; it is created on demand by the first Wait
	// or DoneChan (under mu), so a domain nobody blocks on never allocates
	// it. Finish reads it under mu: a waiter either installs the channel
	// before Finish seals (and Finish closes it), or observes sealed and
	// gets the shared closed channel.
	done chan struct{}

	// parent is the submission context (Background if none was given),
	// retained so the derived context can be materialized on demand and so
	// Finish can check for the parent-cancellation race directly.
	parent context.Context

	// ctx is the domain's derived context: cancelled with the failure as
	// cause the instant the domain fails, and cancelled unconditionally at
	// Finish so the context machinery never leaks. It is materialized by
	// the first Context call (the two context.WithCancelCause allocations
	// are then paid only by domains whose bodies actually use it); Fail and
	// Finish cancel it only if it exists. Task bodies obtain it through the
	// engine (Proc.Context() and friends) for deadline-aware work.
	ctx atomic.Pointer[stateCtx]

	// ctxStop deregisters the context.AfterFunc Init armed to propagate
	// parent cancellation into Fail. Finish calls it once, so a completed
	// domain costs the context package one removal instead of leaving a
	// callback behind.
	ctxStop func() bool
}

// stateCtx pairs the lazily materialized derived context with its cancel
// function, published atomically so Failed-path readers need no lock.
type stateCtx struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// closedChan is the shared pre-closed completion channel handed out when
// the domain finished before anyone asked for DoneChan.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Init readies the state, binding it to parent (context.Background if
// parent is nil). If parent is cancellable, its cancellation is propagated
// into Fail watcher-free via context.AfterFunc — no goroutine per job —
// armed here, before the domain can possibly finish, and disarmed by
// Finish. A parent already cancelled at Init fails the state immediately.
// The completion channel and derived context are not allocated here; see
// the State doc comment.
func (s *State) Init(parent context.Context) {
	if parent == nil {
		parent = context.Background()
	}
	s.parent = parent
	if parent.Done() != nil {
		if err := parent.Err(); err != nil {
			s.Fail(err)
		} else {
			s.ctxStop = context.AfterFunc(parent, func() { s.Fail(parent.Err()) })
		}
	}
}

// Reject readies the state as a pre-failed handle for a submission the
// scheduler refused because it was closing: Init without a parent, Fail
// with ErrClosed, Finish. Wait and Err report ErrClosed at once, and the
// context is already cancelled.
func (s *State) Reject() {
	s.Init(nil)
	s.Fail(ErrClosed)
	s.Finish()
}

// Fail records err as the domain's failure if it is the first one and the
// domain has not finished, and cancels the domain's context with err as its
// cause. Later failures, nil errors and failures after Finish are ignored.
// It reports whether err was recorded.
func (s *State) Fail(err error) bool {
	if err == nil {
		return false
	}
	s.mu.Lock()
	if s.err != nil || s.sealed {
		s.mu.Unlock()
		return false
	}
	s.err = err
	s.failed.Store(true)
	sc := s.ctx.Load()
	s.mu.Unlock()
	// Fan out after dropping the lock: cancel runs AfterFunc callbacks
	// registered on the derived context inline, and those may call back
	// into Err. A context materialized concurrently is cancelled by the
	// materializer itself: it re-reads err under the same mu after
	// publishing the pointer, so exactly one side delivers the cause.
	if sc != nil {
		sc.cancel(err)
	}
	return true
}

// Failed reports (cheaply, lock-free) whether the domain has failed. This
// is the hot-path check engines use to decide whether to skip a task body.
func (s *State) Failed() bool { return s.failed.Load() }

// Err returns the domain's failure without waiting: nil while it is
// healthy, otherwise the first recorded error.
func (s *State) Err() error {
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	return err
}

// Cancel abandons the domain: it fails with ErrCanceled. Cancel after
// completion, or after another failure, is a no-op.
func (s *State) Cancel() { s.Fail(ErrCanceled) }

// Context returns the domain's context: cancelled (with the failure as
// cause) the instant the domain fails or is cancelled, and carrying the
// submission context's deadline and values. Task bodies block on
// Context().Done() instead of polling the failed flag. The first call
// materializes the context; later calls are a single atomic load.
func (s *State) Context() context.Context {
	if sc := s.ctx.Load(); sc != nil {
		return sc.ctx
	}
	return s.materializeCtx()
}

// materializeCtx builds and publishes the derived context. mu serializes
// materialization against Fail and Finish: the builder re-reads the failure
// state under the same lock that records it, so a context created after the
// domain failed (or finished) is cancelled here, with the recorded error as
// cause, before anyone can select on it — the caller cannot distinguish a
// lazy context from an eagerly allocated one.
func (s *State) materializeCtx() context.Context {
	s.mu.Lock()
	if sc := s.ctx.Load(); sc != nil {
		s.mu.Unlock()
		return sc.ctx
	}
	ctx, cancel := context.WithCancelCause(s.parent)
	s.ctx.Store(&stateCtx{ctx: ctx, cancel: cancel})
	err, over := s.err, s.sealed
	s.mu.Unlock()
	if err != nil || over {
		cancel(err) // a nil err (clean finish) leaves context.Canceled as cause
	}
	return ctx
}

// Wait blocks until Finish has run, then returns the final error.
func (s *State) Wait() error {
	if !s.finished.Load() {
		<-s.DoneChan()
	}
	return s.Err()
}

// Done reports (without blocking, lock-free) whether Finish has run.
func (s *State) Done() bool { return s.finished.Load() }

// DoneChan exposes the completion channel for select-based waits. The
// channel is created by the first call; a domain that already finished gets
// a shared pre-closed channel, so the returned channel is always closed by
// (or visibly after) Finish.
func (s *State) DoneChan() <-chan struct{} {
	if s.finished.Load() {
		return closedChan
	}
	s.mu.Lock()
	if s.sealed {
		// Finish already passed its critical section; it closes only the
		// channel it read there, so a channel created now would never close.
		s.mu.Unlock()
		return closedChan
	}
	if s.done == nil {
		s.done = make(chan struct{})
	}
	d := s.done
	s.mu.Unlock()
	return d
}

// Finish seals the state — late Fail calls become no-ops — disarms the
// parent-cancellation hook, cancels the domain's context if it was ever
// materialized (releasing its timers and parent registration; the cause is
// the failure, if any), closes the done channel if anyone is waiting on it
// and returns the final error. It must be called exactly once, by whichever
// worker completes the domain's bookkeeping.
func (s *State) Finish() error {
	s.mu.Lock()
	if s.err == nil {
		// Close the parent-cancellation race: the context tree propagates a
		// parent cancel/deadline into the derived context before our
		// AfterFunc runs, so a body parked on Context().Done() can unblock,
		// return, and complete the domain while the hook that would record
		// the failure is still in flight. Checking the parent directly (the
		// derived context may not even exist) is equivalent: the derived
		// context is only ever cancelled with s.err already set, so a
		// cancellation the bodies observed without s.err being set can only
		// have come from the parent chain. Record its error now, before
		// sealing, and the domain deterministically reports the
		// cancellation its bodies observed.
		if err := s.parent.Err(); err != nil {
			s.err = err
			s.failed.Store(true)
		}
	}
	s.sealed = true
	err := s.err
	sc := s.ctx.Load()
	done := s.done
	s.mu.Unlock()
	if s.ctxStop != nil {
		// Deregister the parent hook; sealed is already set, so a callback
		// that fired in the window is a no-op.
		s.ctxStop()
		s.ctxStop = nil
	}
	if sc != nil {
		sc.cancel(err)
	}
	s.finished.Store(true)
	if done != nil {
		close(done)
	}
	return err
}

// Counters is the per-domain task outcome accounting behind the drain
// invariant: every task a failure domain created is, by quiescence, either
// executed or cancelled (and a cancelled one never ran its body), so
// Spawned == Executed + Cancelled and the domain always drains. Engines
// bump these at execution time; any goroutine may snapshot them live.
type Counters struct {
	Executed  atomic.Int64 // task bodies that ran
	Cancelled atomic.Int64 // tasks skipped after the domain failed
	Panicked  atomic.Int64 // task bodies that panicked
}

// AddExecuted folds a batch of executed-task increments into the counter.
// It is the flush half of the engines' per-(worker, domain) counter caches:
// instead of one LOCK-prefixed RMW per task body, a worker accumulates its
// increments for the domain it is currently executing in a private cache
// and publishes them here on domain switch, park, idle and completion. Live
// Snapshot readers consequently see Executed advance in batches — always a
// monotone lower bound, exact once the domain's engine is quiescent.
func (c *Counters) AddExecuted(n int64) {
	if n != 0 {
		c.Executed.Add(n)
	}
}

// Snapshot reads the counters. Safe at any time; the values are exact only
// once the domain is done (and its engine has flushed per-worker caches —
// see AddExecuted), and each value is a monotone lower bound until then.
func (c *Counters) Snapshot() (executed, cancelled, panicked int64) {
	return c.Executed.Load(), c.Cancelled.Load(), c.Panicked.Load()
}
