package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi/internal/chaos"
	"xkaapi/internal/jobfail"
)

// chaosRT builds a small unpinned runtime with the given injector.
func chaosRT(inj *chaos.Injector) *Runtime {
	return NewRuntime(Config{Workers: 4, Chaos: inj})
}

// spawnTree is a fork-join tree of depth d: every node spawns two children.
func spawnTree(w *Worker, d int) {
	if d == 0 {
		return
	}
	w.Spawn(func(w *Worker) { spawnTree(w, d-1) })
	spawnTree(w, d-1)
	w.Sync()
}

// TestChaosTaskPanicBalance: injected task panics fail their jobs with the
// same *PanicError contract as user panics — every Wait returns, failed jobs
// carry an attributable InjectedPanic value, the pool survives, and the
// quiescent Spawned == Executed + Cancelled invariant holds.
func TestChaosTaskPanicBalance(t *testing.T) {
	inj := chaos.New(chaos.Scenario{Seed: 42, TaskPanic: 0.05})
	rt := chaosRT(inj)
	defer rt.Close()
	failures := 0
	for i := 0; i < 100; i++ {
		err := rt.Submit(func(w *Worker) { spawnTree(w, 4) }).Wait()
		if err == nil {
			continue
		}
		failures++
		var pe *jobfail.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("job %d failed with %T (%v), want *PanicError", i, err, err)
		}
		if _, ok := pe.Value.(chaos.InjectedPanic); !ok {
			t.Fatalf("panic value %T not attributable to chaos", pe.Value)
		}
	}
	if failures == 0 {
		t.Fatal("5% task-panic rate never fired across 100 jobs")
	}
	if got := inj.Counts().TaskPanics; got == 0 {
		t.Fatal("injector counted no task panics")
	}
	// Pool survival: a clean run still goes through (chaos may fail it, so
	// retry a few draws; the site must not fire forever).
	ok := false
	for i := 0; i < 50 && !ok; i++ {
		ok = rt.RunRoot(func(*Worker) {}) == nil
	}
	if !ok {
		t.Fatal("pool no longer serves clean jobs")
	}
	rt.Close()
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestChaosLoopPanicNoHang: loop-chunk panics at the adaptive split/extract
// boundary must abort the loop without stranding its pending count — ForEach
// always returns, the job reports the panic, and counters balance.
func TestChaosLoopPanicNoHang(t *testing.T) {
	inj := chaos.New(chaos.Scenario{Seed: 9, LoopPanic: 0.1})
	rt := chaosRT(inj)
	defer rt.Close()
	failures := 0
	for i := 0; i < 20; i++ {
		err := rt.Submit(func(w *Worker) {
			w.ForEach(0, 10_000, LoopOpts{SeqGrain: 64}, func(*Worker, int64, int64) {})
		}).Wait()
		if err != nil {
			failures++
			var pe *jobfail.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("loop failed with %T, want *PanicError", err)
			}
		}
	}
	if failures == 0 {
		t.Fatal("10% loop-panic rate never fired across 20 loops")
	}
	rt.Close()
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestChaosStealFailAndStall: forced steal misses and worker stalls are pure
// slowdowns — no job may fail, results stay correct, and the decision draws
// are visible in the injector counters.
func TestChaosStealFailAndStall(t *testing.T) {
	inj := chaos.New(chaos.Scenario{
		Seed:        3,
		StealFail:   0.5,
		WorkerStall: chaos.Pulse{Prob: 0.01, For: time.Millisecond},
	})
	rt := chaosRT(inj)
	defer rt.Close()
	for i := 0; i < 20; i++ {
		if err := rt.Submit(func(w *Worker) { spawnTree(w, 5) }).Wait(); err != nil {
			t.Fatalf("slowdown-only chaos failed a job: %v", err)
		}
	}
	rt.Close()
	if c := inj.Counts(); c.StealFails == 0 {
		t.Fatalf("steal-fail site never fired: %+v", c)
	}
	s := rt.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestChaosInboxDelay: delayed root delivery must not lose jobs or race
// Close — the job is registered before the delay, so the drain waits for it.
func TestChaosInboxDelay(t *testing.T) {
	inj := chaos.New(chaos.Scenario{
		Seed:       5,
		InboxDelay: chaos.Pulse{Prob: 1, For: 5 * time.Millisecond},
	})
	rt := chaosRT(inj)
	var ran atomic.Int32
	var jobs []*Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, rt.Submit(func(*Worker) { ran.Add(1) }))
	}
	rt.Close() // drain must include the still-delayed roots
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("ran %d of 10 delayed jobs", got)
	}
	if got := inj.Counts().InboxDelays; got != 10 {
		t.Fatalf("inbox delays counted %d, want 10", got)
	}
}

// TestChaosDeterministicFailureSet: the number of injected panics across a
// fixed serial workload is a pure function of the seed.
func TestChaosDeterministicFailureSet(t *testing.T) {
	run := func(seed uint64) uint64 {
		inj := chaos.New(chaos.Scenario{Seed: seed, TaskPanic: 0.02})
		rt := NewRuntime(Config{Workers: 1, Chaos: inj})
		for i := 0; i < 50; i++ {
			rt.Submit(func(w *Worker) { spawnTree(w, 4) }).Wait()
		}
		rt.Close()
		return inj.Counts().TaskPanics
	}
	a, b := run(1234), run(1234)
	if a != b {
		t.Fatalf("same seed, different injected-panic counts: %d vs %d", a, b)
	}
}
