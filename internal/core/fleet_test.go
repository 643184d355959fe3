package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitDone polls j with a deadline so a routing or steal bug fails the test
// instead of hanging it.
func waitDone(t *testing.T, j *Job, d time.Duration, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s failed: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v", what, d)
	}
}

// TestFleetRoutePlacement: with cross-shard stealing disabled, the router
// alone must keep the fleet live — a plain submit may not land behind the
// busy shard's blocked worker when an idle shard exists (least-load wins).
func TestFleetRoutePlacement(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 2, ShardSize: 1, NoSteal: true})
	defer f.Close()

	release := make(chan struct{})
	blocker := f.SubmitAffinity(context.Background(), 0, func(w *Worker) { <-release })

	// The blocker pins shard 0 (key 0 mod 2) and occupies its only worker;
	// shard 0's load is now 1 against shard 1's 0, so a non-affinity submit
	// must route to shard 1 and complete while shard 0 is stuck.
	ran := false
	j := f.Submit(func(w *Worker) { ran = true })
	waitDone(t, j, 10*time.Second, "submit routed around the blocked shard")
	if !ran {
		t.Fatal("routed job did not run")
	}
	if got := f.shards[1].Stats().Executed; got == 0 {
		t.Fatalf("idle shard executed nothing (executed=%d); least-load placement broken", got)
	}

	close(release)
	waitDone(t, blocker, 10*time.Second, "blocker")
}

// TestFleetAffinitySticks: jobs sharing an affinity key all land on the
// deterministic key-mod-shards shard; with stealing off, no other shard
// executes anything.
func TestFleetAffinitySticks(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 4, ShardSize: 1, NoSteal: true})
	defer f.Close()

	const key = 5 // pins shard 5 mod 4 = 1
	for i := 0; i < 8; i++ {
		f.SubmitAffinity(context.Background(), key, func(w *Worker) {})
	}
	if err := f.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, s := range f.shards {
		exec := s.Stats().Executed
		if i == int(key)%len(f.shards) {
			if exec != 8 {
				t.Fatalf("affinity shard %d executed %d jobs, want 8", i, exec)
			}
		} else if exec != 0 {
			t.Fatalf("shard %d executed %d jobs despite affinity pinning elsewhere", i, exec)
		}
	}
}

// TestFleetCrossShardStealUnderImbalance overloads one shard on purpose:
// four jobs pinned to shard 0 (one worker), whose bodies rendezvous — none
// returns until all four have started. The only way all four can run
// concurrently is for three of the queued roots to migrate to sibling
// shards via cross-shard stealing, so completion itself proves migration;
// the stolen_in counters then confirm the accounting.
func TestFleetCrossShardStealUnderImbalance(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 4, ShardSize: 1})
	defer f.Close()

	const hot = 4
	var started atomic.Int32
	release := make(chan struct{})
	jobs := make([]*Job, hot)
	for i := range jobs {
		jobs[i] = f.SubmitAffinity(context.Background(), 0, func(w *Worker) {
			started.Add(1)
			<-release
		})
	}

	// Keep the sibling shards' workers cycling with no-op jobs until every
	// hot job has started: a worker that wakes for its own root, finishes
	// it and finds nothing at home runs the cross-shard probe before
	// parking again, so each pump round gives every sibling a fresh chance
	// to pull a queued hot root over. The pump guarantees wake-ups, not
	// migration — migration is still only possible through stealRoot.
	deadline := time.After(10 * time.Second)
	for started.Load() < hot {
		for key := uint64(1); key < 4; key++ {
			f.SubmitAffinity(context.Background(), key, func(w *Worker) {})
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d hot jobs started; cross-shard steal is not migrating work", started.Load(), hot)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for i, j := range jobs {
		waitDone(t, j, 10*time.Second, "hot job "+string(rune('0'+i)))
	}
	if err := f.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	var stolen int64
	for _, ss := range f.ShardStats() {
		stolen += ss.StolenIn
	}
	if stolen < hot-1 {
		t.Fatalf("stolen_in total = %d, want >= %d (three hot roots had to migrate)", stolen, hot-1)
	}
	// Migration moves execution, not accounting: the fleet-level balance
	// must still close exactly.
	s := f.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("fleet imbalance after migration: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestFleetDrainRefusesEverywhere: Close flips every shard's closing flag
// before any shard starts waiting for its drain, so while the fleet drains
// one blocked shard, a submit aimed at ANY shard — even one whose own
// queue was long empty — is already rejected with ErrClosed.
func TestFleetDrainRefusesEverywhere(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 4, ShardSize: 1, NoSteal: true})

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := f.SubmitAffinity(context.Background(), 0, func(w *Worker) {
		close(started)
		<-release
	})
	<-started

	closed := make(chan struct{})
	go func() { f.Close(); close(closed) }()

	// Wait until every shard observed the flip; the flip phase does not
	// block (only the drain phase does, on shard 0's blocker).
	for {
		all := true
		for _, s := range f.shards {
			s.jobsMu.Lock()
			c := s.closing
			s.jobsMu.Unlock()
			if !c {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Close is still in progress (the blocker holds shard 0), yet the
	// last shard must already refuse direct submissions.
	select {
	case <-closed:
		t.Fatal("Close returned while the blocker still held shard 0")
	default:
	}
	j := f.shards[3].Submit(func(w *Worker) { t.Error("job ran on a draining fleet") })
	if err := j.Wait(); err != ErrClosed {
		t.Fatalf("submit to idle shard during fleet drain: err=%v, want ErrClosed", err)
	}

	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish after the blocker released")
	}
	waitDone(t, blocker, time.Second, "blocker")
	if j := f.Submit(func(*Worker) {}); j.Err() != ErrClosed {
		t.Fatalf("submit after Close: err=%v, want ErrClosed", j.Err())
	}
}

// TestFleetCloseSubmitStorm races a submit storm against Close: every job
// must either run to completion (registered before the fleet-wide flip) or
// come back pre-failed with ErrClosed — never hang, never run after the
// drain — and the fleet-level accounting must close.
func TestFleetCloseSubmitStorm(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 4, ShardSize: 1})

	const goroutines = 8
	const perG = 50
	var executed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var j *Job
				if i%2 == 0 {
					j = f.Submit(func(*Worker) { executed.Add(1) })
				} else {
					j = f.SubmitAffinity(context.Background(), uint64(g), func(*Worker) { executed.Add(1) })
				}
				errs <- j.Wait()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	f.Close()
	wg.Wait()
	close(errs)

	completed := int64(0)
	for err := range errs {
		switch err {
		case nil:
			completed++
		case ErrClosed:
		default:
			t.Fatalf("storm job failed with %v, want nil or ErrClosed", err)
		}
	}
	if executed.Load() != completed {
		t.Fatalf("executed %d job bodies but %d jobs completed cleanly", executed.Load(), completed)
	}
	s := f.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("fleet imbalance after storm: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestFleetDefaults: zero-value knobs resolve to the documented defaults
// (one shard of GOMAXPROCS workers), and a one-shard fleet is a plain pool:
// stealing off, no supervisor goroutine, and no worker ever touches the
// progress epoch — nothing fleet-specific is paid.
func TestFleetDefaults(t *testing.T) {
	f := NewFleet(FleetConfig{Shards: 2, ShardSize: 3})
	defer f.Close()
	if got := f.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}
	if got := f.NumWorkers(); got != 6 {
		t.Fatalf("NumWorkers() = %d, want 6", got)
	}
	if got := len(f.ShardStats()); got != 2 {
		t.Fatalf("len(ShardStats()) = %d, want 2", got)
	}
	if s := f.String(); !strings.Contains(s, "shards: 2") || !strings.Contains(s, "workers: 6") {
		t.Fatalf("Fleet.String() = %q, want shard and worker counts", s)
	}

	one := NewFleet(FleetConfig{})
	defer one.Close()
	if got, want := one.Shards(), 1; got != want {
		t.Fatalf("zero config: Shards() = %d, want %d", got, want)
	}
	if got, want := one.NumWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("zero config: NumWorkers() = %d, want GOMAXPROCS = %d", got, want)
	}
	if !one.noSteal {
		t.Fatal("1-shard fleet must disable cross-shard stealing")
	}
	if one.healthStop != nil {
		t.Fatal("1-shard fleet started a health supervisor")
	}
	if err := one.RunRoot(func(w *Worker) {
		for i := 0; i < 4*statFlushEvery; i++ {
			w.Spawn(func(*Worker) {})
		}
	}); err != nil {
		t.Fatalf("RunRoot: %v", err)
	}
	if got := one.shards[0].progress.Load(); got != 0 {
		t.Fatalf("1-shard fleet bumped its progress epoch %d times, want 0", got)
	}
}
