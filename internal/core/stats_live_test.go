package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestLiveStatsExecutedMonotoneDuringJob reads Stats concurrently with
// a running job and asserts the properties the /stats endpoint depends on:
// Executed is published live (non-zero well before the job completes) and
// monotone non-decreasing across samples (each per-worker counter is a
// padded atomic that only grows between resets). Running under -race (the
// race tier includes this package) additionally proves the reads are
// race-free against the task hot path — the property the old plain-int
// counters could not offer.
func TestLiveStatsExecutedMonotoneDuringJob(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()

	total := 20_000
	if testing.Short() {
		total = 5_000
	}
	var gate atomic.Bool // released once the sampler has seen progress
	j := rt.Submit(func(w *Worker) {
		for i := 0; i < total; i++ {
			w.Spawn(func(*Worker) {})
			if i%256 == 0 {
				w.Sync()
				for i >= total/2 && !gate.Load() {
					runtime.Gosched() // hold the job in flight for the sampler
				}
			}
		}
		w.Sync()
	})

	var prev int64
	sawLive := false
	for !j.Done() {
		s := rt.Stats()
		if s.Executed < prev {
			t.Fatalf("Stats().Executed went backwards: %d -> %d", prev, s.Executed)
		}
		prev = s.Executed
		if s.Executed > 0 {
			sawLive = true
			gate.Store(true)
		}
		runtime.Gosched()
	}
	gate.Store(true)
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if !sawLive {
		t.Fatal("never observed a non-zero Executed while the job was in flight")
	}

	// Quiescent now: the exact accounting invariant must hold.
	rt.Close()
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("quiescent imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
	if want := int64(total) + 1; s.Executed != want { // + the root task
		t.Fatalf("executed=%d want %d", s.Executed, want)
	}
}

// TestLiveStatsCancelledPublishedLive: cancelling a job mid-flight becomes
// visible in Stats().Cancelled without waiting for quiescence, and the
// quiescent Spawned == Executed + Cancelled invariant still closes.
func TestLiveStatsCancelledPublishedLive(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()

	var release atomic.Bool
	j := rt.Submit(func(w *Worker) {
		for i := 0; i < 5_000; i++ {
			w.Spawn(func(*Worker) {
				for !release.Load() {
					runtime.Gosched()
				}
			})
		}
		w.Sync()
	})
	j.Cancel()
	release.Store(true)
	// Cancellation skips the not-yet-started tasks; some of those skips
	// must surface in a live snapshot before Wait returns.
	sawCancelled := false
	for !j.Done() {
		if rt.Stats().Cancelled > 0 {
			sawCancelled = true
			break
		}
		runtime.Gosched()
	}
	if err := j.Wait(); err != ErrCanceled {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if !sawCancelled && rt.Stats().Cancelled == 0 {
		t.Fatal("cancelled tasks never appeared in a live Stats snapshot")
	}
	rt.Close()
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("quiescent imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}
