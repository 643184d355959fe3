package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi"
)

// TestDoReportsPanic: a panicking sibling fails the whole Do job and the
// error carries the panic value; the runtime survives.
func TestDoReportsPanic(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()
	var ran atomic.Int32
	err := Do(rt,
		func(*xkaapi.Proc) { ran.Add(1) },
		func(*xkaapi.Proc) { panic("boom-do") },
		func(*xkaapi.Proc) { ran.Add(1) },
	)
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-do" {
		t.Fatalf("Do error = %v, want PanicError(boom-do)", err)
	}
	if err := Do(rt, func(*xkaapi.Proc) {}); err != nil {
		t.Fatalf("Do after failure: %v", err)
	}
}

// TestDoNoError: the nil-error path stays nil for 0, 1 and n functions.
func TestDoNoError(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	if err := Do(rt); err != nil {
		t.Fatalf("empty Do: %v", err)
	}
	if err := Do(rt, func(*xkaapi.Proc) {}); err != nil {
		t.Fatalf("single Do: %v", err)
	}
	if err := Do(rt, func(*xkaapi.Proc) {}, func(*xkaapi.Proc) {}); err != nil {
		t.Fatalf("double Do: %v", err)
	}
}

// TestForEachReportsPanic: a panicking loop body aborts the loop and
// surfaces through ForEach's error.
func TestForEachReportsPanic(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()
	err := ForEach(rt, 0, 100_000, func(_ *xkaapi.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 51_000 {
				panic("boom-foreach")
			}
		}
	})
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-foreach" {
		t.Fatalf("ForEach error = %v, want PanicError(boom-foreach)", err)
	}
	// The pool keeps serving loops after the failure.
	var sum atomic.Int64
	if err := ForEach(rt, 0, 1000, func(_ *xkaapi.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}); err != nil {
		t.Fatalf("ForEach after failure: %v", err)
	}
	if sum.Load() != 499_500 {
		t.Fatalf("sum = %d, want 499500", sum.Load())
	}
}

// TestDoContextUnblocksOnSiblingPanic: a Do sibling parked on
// Proc.Context's Done channel is released by another sibling's panic.
func TestDoContextUnblocksOnSiblingPanic(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	blocked := make(chan struct{})
	err := Do(rt,
		func(p *xkaapi.Proc) { // runs in the root body
			<-blocked // the blocker sibling is provably parked on Done
			panic("boom-do-ctx")
		},
		func(p *xkaapi.Proc) { // spawned sibling, stolen by the other worker
			close(blocked)
			<-p.Context().Done()
		},
	)
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-do-ctx" {
		t.Fatalf("Do = %v, want PanicError(boom-do-ctx)", err)
	}
}

// TestDoCtxDeadline: DoCtx fails the whole sibling group at the parent
// deadline, releasing siblings parked on the job context.
func TestDoCtxDeadline(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := DoCtx(ctx, rt,
		func(p *xkaapi.Proc) { <-p.Context().Done() },
		func(p *xkaapi.Proc) { <-p.Context().Done() },
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DoCtx = %v, want DeadlineExceeded", err)
	}
}

// TestForEachCtxCancelled: cancelling the loop's context aborts it with
// the context error instead of finishing the range.
func TestForEachCtxCancelled(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var iters atomic.Int64
	err := ForEachCtx(ctx, rt, 0, 1<<30, func(p *xkaapi.Proc, lo, hi int) {
		once.Do(cancel)
		// The cancellation hook runs asynchronously; linger per chunk so
		// the job fails while most of the range is still unclaimed.
		time.Sleep(time.Millisecond)
		iters.Add(int64(hi - lo))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	if iters.Load() >= 1<<30 {
		t.Fatal("cancelled loop executed the entire range")
	}
}
