package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wantPanicErr asserts err is a *PanicError carrying value and a stack that
// mentions frame (a function name expected at the panic site).
func wantPanicErr(t *testing.T, err error, value any, frame string) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != value {
		t.Fatalf("panic value = %v, want %v", pe.Value, value)
	}
	if frame != "" && !strings.Contains(string(pe.Stack), frame) {
		t.Fatalf("panic stack does not mention %q:\n%s", frame, pe.Stack)
	}
	return pe
}

// TestPanicInRootBody: a panicking root body becomes the job's error, with
// the panic value and a stack pointing at the panic site, and the pool
// survives to run further jobs.
func TestPanicInRootBody(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	err := rt.Submit(func(*Worker) { panicHere() }).Wait()
	wantPanicErr(t, err, "boom-root", "panicHere")
	// The pool must still work.
	ok := false
	if err := rt.Submit(func(*Worker) { ok = true }).Wait(); err != nil {
		t.Fatalf("second job after panic: %v", err)
	}
	if !ok {
		t.Fatal("second job did not run")
	}
}

//go:noinline
func panicHere() { panic("boom-root") }

// TestPanicInSpawnedChild: a panic in a stolen/spawned child is captured
// into the job that spawned it.
func TestPanicInSpawnedChild(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()
	err := rt.Submit(func(w *Worker) {
		w.Spawn(func(*Worker) { panic("boom-child") })
		w.Sync()
	}).Wait()
	wantPanicErr(t, err, "boom-child", "")
}

// TestPanicCancelsRemainingTasks: with one worker, a root that spawns N
// children and then panics must have every child skipped, visible in the
// Cancelled counter, while the Panicked counter records the one panic.
func TestPanicCancelsRemainingTasks(t *testing.T) {
	const n = 50
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	var ran atomic.Int64
	err := rt.Submit(func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
		panic("boom-before-children")
	}).Wait()
	wantPanicErr(t, err, "boom-before-children", "")
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d children ran after the parent panicked (1 worker)", got)
	}
	rt.Wait()
	s := rt.Stats()
	if s.Cancelled != n {
		t.Fatalf("Stats.Cancelled = %d, want %d", s.Cancelled, n)
	}
	if s.Panicked != 1 {
		t.Fatalf("Stats.Panicked = %d, want 1", s.Panicked)
	}
	// Spawn/execute/cancel accounting must balance: every created task was
	// either executed or cancelled.
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestPanicInDataflowCancelsSuccessors: in a chain A -> B -> C through one
// handle, a panic in A must cancel B and C (their bodies never run) while
// keeping the handle frontier consistent: a later job reusing the same
// handle must run normally.
func TestPanicInDataflowCancelsSuccessors(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()
	var h Handle
	var bRan, cRan atomic.Bool
	err := rt.Submit(func(w *Worker) {
		w.SpawnTask(func(*Worker) { panic("boom-producer") }, Access{&h, ModeWrite})
		w.SpawnTask(func(*Worker) { bRan.Store(true) }, Access{&h, ModeReadWrite})
		w.SpawnTask(func(*Worker) { cRan.Store(true) }, Access{&h, ModeRead})
	}).Wait()
	wantPanicErr(t, err, "boom-producer", "")
	if bRan.Load() || cRan.Load() {
		t.Fatalf("successors of panicked producer ran: b=%v c=%v", bRan.Load(), cRan.Load())
	}
	// Frontier consistency: the same handle must still sequence a fresh
	// chain correctly in a new job.
	var order atomic.Int32
	var first, second int32
	err = rt.Submit(func(w *Worker) {
		w.SpawnTask(func(*Worker) { first = order.Add(1) }, Access{&h, ModeWrite})
		w.SpawnTask(func(*Worker) { second = order.Add(1) }, Access{&h, ModeRead})
	}).Wait()
	if err != nil {
		t.Fatalf("job reusing handle after failure: %v", err)
	}
	if first != 1 || second != 2 {
		t.Fatalf("dataflow order after failed job: writer=%d reader=%d, want 1,2", first, second)
	}
}

// TestPanicInAdaptiveSplitter: a splitter panics on the thief that invokes
// it; the panic must fail the installing task's job, not kill the thief.
func TestPanicInAdaptiveSplitter(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	j := rt.Submit(func(w *Worker) {
		ad := &Adaptive{Split: func(thief *Worker, n int) []*Task {
			// Build a task first: a panic must roll its spawn count back,
			// or the Spawned == Executed + Cancelled invariant breaks.
			thief.NewAdaptiveTask(func(*Worker) {})
			panic("boom-split")
		}}
		prev := w.SetAdaptive(ad)
		deadline := time.Now().Add(10 * time.Second)
		for !w.JobFailed() { // wait for a thief to invoke (and die in) Split
			if time.Now().After(deadline) {
				break
			}
		}
		w.SetAdaptive(prev)
	})
	err := j.Wait()
	wantPanicErr(t, err, "boom-split", "")
	if !strings.Contains(err.Error(), "boom-split") {
		t.Fatalf("error text lacks panic value: %v", err)
	}
	rt.Wait()
	if s := rt.Stats(); s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("spawned=%d executed=%d cancelled=%d do not balance after splitter panic",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestPanicInForEachBody: a panicking chunk aborts the loop, unwinds the
// calling body (code after ForEach must not run), and surfaces as the job's
// PanicError.
func TestPanicInForEachBody(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()
	afterLoop := false
	err := rt.Submit(func(w *Worker) {
		w.ForEach(0, 1_000_000, func(_ *Worker, lo, hi int64) {
			for i := lo; i < hi; i++ {
				if i == 500_000 {
					panic("boom-loop")
				}
			}
		})
		afterLoop = true
	}).Wait()
	wantPanicErr(t, err, "boom-loop", "")
	if afterLoop {
		t.Fatal("body continued past a failed ForEach")
	}
	rt.Wait()
	if s := rt.Stats(); s.Panicked == 0 {
		t.Fatalf("Stats.Panicked = 0 after loop panic")
	}
}

// TestForEachSerialFastPathPanic covers the single-worker / small-range
// path where the body runs inline.
func TestForEachSerialFastPathPanic(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	err := rt.Submit(func(w *Worker) {
		w.ForEach(0, 10, func(*Worker, int64, int64) { panic("boom-serial") })
	}).Wait()
	wantPanicErr(t, err, "boom-serial", "")
}

// TestSubmitCtxCancel: cancelling the submission context before the root
// runs skips the job's body and Wait reports context.Canceled.
func TestSubmitCtxCancel(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	gate := make(chan struct{})
	blocker := rt.Submit(func(*Worker) { <-gate }) // occupy the only worker
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	j := rt.SubmitCtx(ctx, func(*Worker) { ran = true })
	cancel()
	// Give the watcher a moment to observe the cancellation, then let the
	// worker reach the queued root.
	for j.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatalf("blocker job: %v", err)
	}
	if err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled job's body ran")
	}
	rt.Wait()
	if s := rt.Stats(); s.Cancelled == 0 {
		t.Fatal("Stats.Cancelled = 0 after a cancelled root")
	}
}

// TestSubmitCtxPreCancelled: a context cancelled before SubmitCtx still
// yields a job; its body never runs and Wait reports the context error.
func TestSubmitCtxPreCancelled(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	j := rt.SubmitCtx(ctx, func(*Worker) { ran = true })
	if err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-cancelled job's body ran")
	}
}

// TestJobCancelStopsScheduling: Cancel mid-flight stops new tasks of the
// job from running; tasks already executing finish (cooperatively).
func TestJobCancelStopsScheduling(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var lateRan atomic.Bool
	j := rt.Submit(func(w *Worker) {
		close(started)
		<-release // body already executing: runs to completion
		w.Spawn(func(*Worker) { lateRan.Store(true) })
		w.Sync()
	})
	<-started
	j.Cancel()
	close(release)
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if lateRan.Load() {
		t.Fatal("task spawned after Cancel ran")
	}
	// Cancel after completion must not disturb a finished job's error.
	ok := rt.Submit(func(*Worker) {})
	if err := ok.Wait(); err != nil {
		t.Fatalf("clean job: %v", err)
	}
	ok.Cancel()
	if err := ok.Err(); err != nil {
		t.Fatalf("Cancel after completion changed Err to %v", err)
	}
}

// TestCancelledForEachStopsExtracting: a job cancelled while an adaptive
// loop runs stops claiming iterations instead of finishing the range.
func TestCancelledForEachStopsExtracting(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	var iters atomic.Int64
	var j *Job
	started := make(chan struct{})
	var once atomic.Bool
	j = rt.Submit(func(w *Worker) {
		w.forEach(0, 1<<30, 1024, func(_ *Worker, lo, hi int64) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			iters.Add(hi - lo)
		})
	})
	<-started
	j.Cancel()
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if iters.Load() >= 1<<30 {
		t.Fatal("cancelled loop executed the entire range")
	}
}

// TestCancelledForEachSerialPath: the single-worker fast path honours the
// same contract as the parallel loop — cancellation stops the loop at the
// next grain boundary and unwinds the body, so code after the loop never
// runs.
func TestCancelledForEachSerialPath(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	ready := make(chan struct{})
	var chunks atomic.Int64
	after := false
	var j *Job
	j = rt.Submit(func(w *Worker) {
		<-ready // j is assigned before the body proceeds
		w.forEach(0, 1<<20, 1024, func(*Worker, int64, int64) {
			if chunks.Add(1) == 1 {
				j.Cancel()
			}
		})
		after = true
	})
	close(ready)
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if got := chunks.Load(); got != 1 {
		t.Fatalf("loop ran %d chunks after Cancel, want 1", got)
	}
	if after {
		t.Fatal("body continued past a cancelled ForEach")
	}
}

// TestAbortedForEachWaitsForRunningChunks: a failed/cancelled loop must not
// let the job complete while a chunk body is still executing — the caller
// may free the data the body touches the moment Wait returns. pending is
// authoritative: iterations are either executed or abort-credited, so
// ForEach only returns once no body is in flight.
func TestAbortedForEachWaitsForRunningChunks(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	inChunk := make(chan struct{})
	release := make(chan struct{})
	var chunkDone atomic.Bool
	var once atomic.Bool
	j := rt.Submit(func(w *Worker) {
		w.forEach(0, 1<<20, 1, func(*Worker, int64, int64) {
			if once.CompareAndSwap(false, true) {
				close(inChunk)
				<-release
				chunkDone.Store(true)
			}
		})
	})
	<-inChunk
	j.Cancel()
	select {
	case <-j.st.DoneChan():
		t.Fatal("job completed while a chunk body was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if !chunkDone.Load() {
		t.Fatal("chunk body did not run to completion")
	}
}

// TestCloseErrReportsFailures: CloseErr drains and summarizes job failures,
// wrapping the first error.
func TestCloseErrReportsFailures(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Submit(func(*Worker) {}).Wait()
	rt.Submit(func(*Worker) { panic("boom-close") }).Wait()
	err := rt.CloseErr()
	if err == nil {
		t.Fatal("CloseErr = nil after a failed job")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-close" {
		t.Fatalf("CloseErr does not wrap the job's PanicError: %v", err)
	}
	// CloseErr on a clean runtime is nil.
	rt2 := NewRuntime(Config{Workers: 1})
	rt2.Submit(func(*Worker) {}).Wait()
	if err := rt2.CloseErr(); err != nil {
		t.Fatalf("CloseErr on clean runtime = %v", err)
	}
}

// TestPanicErrorUnwrap: panic(err) is reachable through errors.Is.
func TestPanicErrorUnwrap(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	sentinel := errors.New("sentinel failure")
	err := rt.Submit(func(*Worker) { panic(sentinel) }).Wait()
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(%v, sentinel) = false", err)
	}
}

// TestConcurrentJobsIsolated: a panicking job must not disturb healthy jobs
// sharing the pool.
func TestConcurrentJobsIsolated(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()
	jobs := make([]*Job, 0, 32)
	results := make([]int64, 32)
	for i := range results {
		i := i
		if i%4 == 0 {
			jobs = append(jobs, rt.Submit(func(*Worker) { panic("boom-mixed") }))
		} else {
			jobs = append(jobs, rt.Submit(func(w *Worker) { fibTask(w, &results[i], 18) }))
		}
	}
	want := int64(2584) // fib(18)
	for i, j := range jobs {
		err := j.Wait()
		if i%4 == 0 {
			wantPanicErr(t, err, "boom-mixed", "")
			continue
		}
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
		if results[i] != want {
			t.Fatalf("job %d: fib=%d want %d", i, results[i], want)
		}
	}
}

// TestContextUnblocksOnSiblingPanic: a body parked on Proc.Context().Done()
// is released the instant a sibling task panics, from another worker,
// without the blocked body ever reaching a scheduling point — the
// cancellation fan-out half of the shared failure state machine. The panic
// is also the context's cause.
func TestContextUnblocksOnSiblingPanic(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	blocked := make(chan struct{})
	var sawCause error
	j := rt.Submit(func(w *Worker) {
		w.Spawn(func(w2 *Worker) { // blocker: stolen by the second worker
			ctx := w2.Context()
			close(blocked)
			<-ctx.Done()
			sawCause = context.Cause(ctx)
		})
		w.Spawn(func(*Worker) { // panicker: popped LIFO by the first
			<-blocked // the blocker is provably parked on Done
			panic("boom-ctx-sibling")
		})
		w.Sync()
	})
	err := j.Wait()
	wantPanicErr(t, err, "boom-ctx-sibling", "")
	var pe *PanicError
	if !errors.As(sawCause, &pe) || pe.Value != "boom-ctx-sibling" {
		t.Fatalf("context cause = %v, want the sibling's PanicError", sawCause)
	}
}

// TestContextUnblocksOnJobCancel: an external Job.Cancel releases a body
// parked on the job context, with ErrCanceled as the cause.
func TestContextUnblocksOnJobCancel(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()
	blocked := make(chan struct{})
	var sawCause error
	j := rt.Submit(func(w *Worker) {
		ctx := w.Context()
		close(blocked)
		<-ctx.Done()
		sawCause = context.Cause(ctx)
	})
	<-blocked
	j.Cancel()
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if !errors.Is(sawCause, ErrCanceled) {
		t.Fatalf("context cause = %v, want ErrCanceled", sawCause)
	}
}

// TestContextCarriesSubmitDeadline: a SubmitCtx job's tasks see the
// submission deadline through Proc.Context — Deadline() reports it, Done()
// fires at expiry, and Wait reports context.DeadlineExceeded.
func TestContextCarriesSubmitDeadline(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sawDeadline := false
	j := rt.SubmitCtx(ctx, func(w *Worker) {
		jctx := w.Context()
		_, sawDeadline = jctx.Deadline()
		<-jctx.Done() // deadline-aware body: released by the timer
	})
	if err := j.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
	if !sawDeadline {
		t.Fatal("body did not observe the submission deadline via Proc.Context")
	}
}

// TestContextPropagationStress is the -race stress over the whole failure
// state machine: jobs whose bodies park on Proc.Context().Done() are
// concurrently released by sibling panics, external Cancels and context
// deadlines, interleaved with healthy jobs, all over one small pool. Every
// blocked body's release comes from outside the pool's progress (a root
// panic on its own worker, a timer, or the test goroutine), so the stress
// cannot deadlock however the scheduler interleaves.
func TestContextPropagationStress(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()
	jobs := 120
	if testing.Short() {
		jobs = 40
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			switch i % 4 {
			case 0: // sibling panic releases a Done-parked child
				j := rt.Submit(func(w *Worker) {
					w.Spawn(func(w2 *Worker) { <-w2.Context().Done() })
					panic("boom-stress")
				})
				var pe *PanicError
				if err := j.Wait(); !errors.As(err, &pe) {
					fail("panic job %d: Wait = %v, want PanicError", i, err)
				}
			case 1: // deadline releases a Done-parked root
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
				j := rt.SubmitCtx(ctx, func(w *Worker) { <-w.Context().Done() })
				if err := j.Wait(); !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					fail("deadline job %d: Wait = %v, want a context error", i, err)
				}
				cancel()
			case 2: // external Cancel releases a Done-parked root
				started := make(chan struct{})
				j := rt.Submit(func(w *Worker) {
					close(started)
					<-w.Context().Done()
				})
				<-started
				j.Cancel()
				if err := j.Wait(); !errors.Is(err, ErrCanceled) {
					fail("cancel job %d: Wait = %v, want ErrCanceled", i, err)
				}
			default: // healthy job sharing the pool
				var r int64
				j := rt.Submit(func(w *Worker) { fibTask(w, &r, 12) })
				if err := j.Wait(); err != nil {
					fail("healthy job %d failed: %v", i, err)
				} else if r != 144 {
					fail("healthy job %d: fib=%d want 144", i, r)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	rt.Wait()
}

// TestSubmitCtxAfterCloseReportsErrClosed: rejection must win over the
// submission context's own state — SubmitCtx on a closed runtime reports
// ErrClosed even when ctx is already cancelled, so errors.Is(err,
// ErrClosed) remains the reliable shutdown signal.
func TestSubmitCtxAfterCloseReportsErrClosed(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := rt.SubmitCtx(ctx, func(*Worker) {})
	if err := j.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait = %v, want ErrClosed", err)
	}
}
