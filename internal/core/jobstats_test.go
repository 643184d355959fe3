package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitJobStats polls j.Stats until it equals want or the deadline expires.
// Job.Stats is exact only at quiescence: after Job.Wait returns, workers
// other than the one that completed the root may still hold a per-job
// executed batch in their caches, published within their own idle
// transitions (park, failed steal round) microseconds later. Tests that
// assert exact per-job counts on a multi-worker pool therefore poll the
// flush out instead of racing it.
func waitJobStats(t *testing.T, name string, j *Job, want JobStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := j.Stats()
		if s == want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s stats = %+v, want %+v (after quiescence)", name, s, want)
			return
		}
		runtime.Gosched()
	}
}

// TestJobStatsAttribution checks that task outcomes are attributed to the
// job that owns them: two concurrent jobs of different widths must report
// disjoint, exact Executed counts once their workers have flushed.
func TestJobStatsAttribution(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	defer rt.Close()

	spawnTree := func(n int) func(*Worker) {
		return func(w *Worker) {
			for i := 0; i < n; i++ {
				w.Spawn(func(*Worker) {})
			}
			w.Sync()
		}
	}
	ja := rt.Submit(spawnTree(10))
	jb := rt.Submit(spawnTree(25))
	if err := ja.Wait(); err != nil {
		t.Fatalf("job A failed: %v", err)
	}
	if err := jb.Wait(); err != nil {
		t.Fatalf("job B failed: %v", err)
	}
	waitJobStats(t, "job A", ja, JobStats{Executed: 11})
	waitJobStats(t, "job B", jb, JobStats{Executed: 26})
}

// TestJobStatsPanicAttribution checks that a panicking task increments the
// owning job's Panicked counter and that the tasks skipped afterwards are
// attributed to the same job's Cancelled counter, while an innocent
// concurrent job stays clean.
func TestJobStatsPanicAttribution(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()

	bad := rt.Submit(func(w *Worker) {
		w.Spawn(func(*Worker) { panic("boom") })
		w.Sync()
		// The job is failed by now; these children are cancelled (eagerly
		// or at execution), never executed.
		for i := 0; i < 8; i++ {
			w.Spawn(func(*Worker) { t.Error("task of failed job executed") })
		}
		w.Sync()
	})
	good := rt.Submit(func(w *Worker) {
		for i := 0; i < 8; i++ {
			w.Spawn(func(*Worker) {})
		}
		w.Sync()
	})

	var pe *PanicError
	if err := bad.Wait(); !errors.As(err, &pe) {
		t.Fatalf("bad job error = %v, want *PanicError", err)
	}
	if err := good.Wait(); err != nil {
		t.Fatalf("good job failed: %v", err)
	}
	// Panicked and Cancelled are bumped directly (no cache) and are exact
	// the moment Wait returns; Executed needs the flush, so both jobs are
	// checked through the quiescence poll. The bad job executed two bodies
	// — its root and the panicking child (a body that panics still ran) —
	// and the 8 post-failure spawns were cancelled eagerly.
	waitJobStats(t, "bad job", bad, JobStats{Executed: 2, Cancelled: 8, Panicked: 1})
	waitJobStats(t, "good job", good, JobStats{Executed: 9})
}

// TestEagerCancelNoDequeTraffic asserts the eager-cancel path: once a job
// has failed, Spawn and SpawnTask from its tasks produce no deque traffic
// at all — the children are counted spawned-and-cancelled without ever
// being allocated or pushed.
func TestEagerCancelNoDequeTraffic(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Close()

	const extra = 16
	var dequeAfterSpawn atomic.Int64 // max deque size observed after a dead spawn
	var h Handle
	j := rt.Submit(func(w *Worker) {
		w.Spawn(func(*Worker) { panic("fail early") })
		w.Sync()
		if !w.JobFailed() {
			t.Error("job not failed after panicking child synced")
		}
		// Every spawn below lands on a failed job: with eager cancel the
		// owner deque must stay empty (1 worker: nobody else can pop it
		// between the spawn and the probe).
		for i := 0; i < extra; i++ {
			w.Spawn(func(*Worker) {})
			if n := w.deque.size(); n > dequeAfterSpawn.Load() {
				dequeAfterSpawn.Store(n)
			}
		}
		w.SpawnTask(func(*Worker) {}, Access{Handle: &h, Mode: ModeWrite})
		if n := w.deque.size(); n > dequeAfterSpawn.Load() {
			dequeAfterSpawn.Store(n)
		}
	})

	var pe *PanicError
	if err := j.Wait(); !errors.As(err, &pe) {
		t.Fatalf("job error = %v, want *PanicError", err)
	}
	if n := dequeAfterSpawn.Load(); n != 0 {
		t.Errorf("deque size after spawn on failed job = %d, want 0 (eager cancel)", n)
	}
	js := j.Stats()
	if js.Cancelled != extra+1 {
		t.Errorf("job Cancelled = %d, want %d", js.Cancelled, extra+1)
	}
	rt.Wait()
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Errorf("counter imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestWaitAggregatesErrors checks that Runtime.Wait returns the joined
// failures of the drained jobs, and that a failure is reported by exactly
// one drain.
func TestWaitAggregatesErrors(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()

	rt.Submit(func(*Worker) {}).Wait()
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait after success = %v, want nil", err)
	}

	for i := 0; i < 3; i++ {
		rt.Submit(func(*Worker) { panic("wait-agg") })
	}
	rt.Submit(func(*Worker) {})
	err := rt.Wait()
	if err == nil {
		t.Fatal("Wait = nil, want aggregated failures")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("aggregated error %v does not expose *PanicError", err)
	}
	if n := strings.Count(err.Error(), "wait-agg"); n != 3 {
		t.Errorf("aggregated error mentions %d failures, want 3", n)
	}
	// The drain consumed the failures: the next Wait is clean.
	if err := rt.Wait(); err != nil {
		t.Errorf("second Wait = %v, want nil", err)
	}
}

// TestWaitErrorCap checks that a flood of failures is capped: Wait retains
// maxDrainErrs individual errors and summarizes the rest by count.
func TestWaitErrorCap(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Close()

	const n = maxDrainErrs + 7
	for i := 0; i < n; i++ {
		rt.Submit(func(*Worker) { panic("flood") }).Wait()
	}
	err := rt.Wait()
	if err == nil {
		t.Fatal("Wait = nil, want aggregated failures")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("aggregated error %v does not expose *PanicError", err)
	}
	if !strings.Contains(err.Error(), "7 more job failure(s) elided") {
		t.Errorf("aggregated error %q does not summarize the elided failures", err)
	}
}
