package xkaapi_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"xkaapi"
)

// TestRunReportsPanic: the facade Run returns the job's PanicError and the
// runtime survives.
func TestRunReportsPanic(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	err := rt.Run(func(p *xkaapi.Proc) {
		p.Spawn(func(*xkaapi.Proc) { panic("boom-facade") })
		p.Sync()
	})
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-facade" {
		t.Fatalf("Run = %v, want PanicError(boom-facade)", err)
	}
	if err := rt.Run(func(*xkaapi.Proc) {}); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
}

// TestSubmitCtxFacade: context cancellation reaches the job through the
// facade.
func TestSubmitCtxFacade(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.RunCtx(ctx, func(*xkaapi.Proc) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	// A live context behaves like Run.
	if err := rt.RunCtx(context.Background(), func(*xkaapi.Proc) {}); err != nil {
		t.Fatalf("RunCtx(live) = %v", err)
	}
}

// TestJobCancelFacade: Job.Cancel through the facade.
func TestJobCancelFacade(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	defer rt.Close()
	gate := make(chan struct{})
	blocker := rt.Submit(func(*xkaapi.Proc) { <-gate })
	j := rt.Submit(func(*xkaapi.Proc) {})
	j.Cancel()
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := j.Wait(); !errors.Is(err, xkaapi.ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
}

// TestForeachError: the runtime-level Foreach surfaces loop panics.
func TestForeachError(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	defer rt.Close()
	err := rt.Foreach(0, 100_000, func(_ *xkaapi.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 50_001 {
				panic("boom-rt-foreach")
			}
		}
	})
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom-rt-foreach" {
		t.Fatalf("Foreach = %v, want PanicError(boom-rt-foreach)", err)
	}
}

// TestCloseErrFacade: CloseErr summarizes the runtime's failed jobs; jobs
// submitted after Close are rejected with ErrClosed.
func TestCloseErrFacade(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	rt.Submit(func(*xkaapi.Proc) { panic("boom-close-facade") }).Wait()
	if err := rt.CloseErr(); err == nil {
		t.Fatal("CloseErr = nil after failed job")
	}
	j := rt.Submit(func(*xkaapi.Proc) {})
	if err := j.Wait(); !errors.Is(err, xkaapi.ErrClosed) {
		t.Fatalf("Submit after Close: Wait = %v, want ErrClosed", err)
	}
}

// TestStatsCountPanickedCancelled: the new Stats counters are visible at
// the facade.
func TestStatsCountPanickedCancelled(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	defer rt.Close()
	rt.ResetStats()
	rt.Run(func(p *xkaapi.Proc) {
		for i := 0; i < 5; i++ {
			p.Spawn(func(*xkaapi.Proc) {})
		}
		panic("boom-stats")
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := rt.Stats()
		if s.Panicked == 1 && s.Cancelled == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Stats = %+v, want Panicked=1 Cancelled=5", s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcContextFacade: the per-job context is reachable from task bodies
// through the public Proc.Context and from the Job handle, and is
// cancelled by each failure source — a sibling panic and an external
// Job.Cancel — unblocking a parked body from another worker.
func TestProcContextFacade(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()

	// Sibling panic unblocks a body parked on Proc.Context().Done().
	blocked := make(chan struct{})
	j := rt.Submit(func(p *xkaapi.Proc) {
		p.Spawn(func(p2 *xkaapi.Proc) { // stolen by the second worker
			close(blocked)
			<-p2.Context().Done()
		})
		p.Spawn(func(*xkaapi.Proc) { // popped LIFO locally
			<-blocked
			panic("boom-facade-ctx")
		})
		p.Sync()
	})
	var pe *xkaapi.PanicError
	if err := j.Wait(); !errors.As(err, &pe) || pe.Value != "boom-facade-ctx" {
		t.Fatalf("Wait = %v, want PanicError(boom-facade-ctx)", err)
	}
	select {
	case <-j.Context().Done():
	default:
		t.Fatal("Job.Context not cancelled after the job failed")
	}

	// External Cancel unblocks a parked body too.
	blocked2 := make(chan struct{})
	j2 := rt.Submit(func(p *xkaapi.Proc) {
		close(blocked2)
		<-p.Context().Done()
	})
	<-blocked2
	j2.Cancel()
	if err := j2.Wait(); !errors.Is(err, xkaapi.ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
}

// TestRunCtxDeadlineReachesBodies: RunCtx's deadline is visible inside
// task bodies via Proc.Context and fails the job at expiry.
func TestRunCtxDeadlineReachesBodies(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sawDeadline := false
	err := rt.RunCtx(ctx, func(p *xkaapi.Proc) {
		_, sawDeadline = p.Context().Deadline()
		<-p.Context().Done()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx = %v, want DeadlineExceeded", err)
	}
	if !sawDeadline {
		t.Fatal("body did not observe the RunCtx deadline via Proc.Context")
	}
}
