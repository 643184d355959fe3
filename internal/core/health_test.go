package core

import (
	"context"
	"testing"
	"time"

	"xkaapi/internal/chaos"
)

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestRouteSkipsUnhealthy drives the router directly against hand-set health
// flags (supervision disabled so nothing re-admits behind the test's back):
// affinity keys fall through to the next healthy shard deterministically,
// the least-loaded scan never lands on a sick shard, and with every shard
// unhealthy routing degrades to normal placement instead of failing.
func TestRouteSkipsUnhealthy(t *testing.T) {
	f := NewFleet(FleetConfig{
		Shards: 3, ShardSize: 1,
		Health: HealthConfig{Disable: true},
	})
	defer f.Close()

	f.shards[1].unhealthy.Store(true)
	if got := f.route(1, true); got != f.shards[2] {
		t.Fatalf("key 1 with shard 1 sick routed to shard %d, want 2", got.shardIndex)
	}
	if got := f.route(4, true); got != f.shards[2] {
		t.Fatalf("key 4 (home 1) with shard 1 sick routed to shard %d, want 2", got.shardIndex)
	}
	if got := f.route(2, true); got != f.shards[2] {
		t.Fatalf("healthy pin diverted: key 2 routed to shard %d", got.shardIndex)
	}
	for i := 0; i < 64; i++ {
		if got := f.route(0, false); got == f.shards[1] {
			t.Fatal("least-loaded scan placed on an unhealthy shard")
		}
	}
	if f.shards[1].routedAround.Load() == 0 {
		t.Fatal("diversions away from shard 1 not counted")
	}

	f.shards[0].unhealthy.Store(true)
	f.shards[2].unhealthy.Store(true)
	if got := f.route(1, true); got != f.shards[1] {
		t.Fatalf("all-unhealthy pin moved to shard %d, want home 1", got.shardIndex)
	}
	if got := f.route(0, false); got == nil {
		t.Fatal("all-unhealthy scan returned nil")
	}
	for i := range f.shards {
		f.shards[i].unhealthy.Store(false)
	}
}

// TestSupervisorTripsAndReadmits is the full lifecycle: a shard whose single
// worker is stuck while roots queue behind it is marked unhealthy within
// StallAfter, the router places around it (including pinned keys), and once
// the worker resumes and the epoch advances the shard is re-admitted.
func TestSupervisorTripsAndReadmits(t *testing.T) {
	f := NewFleet(FleetConfig{
		Shards: 2, ShardSize: 1, NoSteal: true,
		Health: HealthConfig{CheckEvery: 5 * time.Millisecond, StallAfter: 30 * time.Millisecond},
	})
	defer f.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	stuck := f.SubmitAffinity(context.Background(), 0, func(w *Worker) {
		close(started)
		<-release
	})
	<-started
	// Backlog behind the stuck worker; NoSteal keeps it on shard 0's inbox.
	var queued []*Job
	for i := 0; i < 3; i++ {
		queued = append(queued, f.SubmitAffinity(context.Background(), 0, func(*Worker) {}))
	}

	if !pollUntil(t, 2*time.Second, func() bool { return f.shards[0].unhealthy.Load() }) {
		t.Fatal("stalled shard 0 never marked unhealthy")
	}

	// A pinned submission now lands on shard 1 and completes even though its
	// home shard is frozen.
	diverted := f.SubmitAffinity(context.Background(), 0, func(*Worker) {})
	done := make(chan error, 1)
	go func() { done <- diverted.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("diverted job failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pinned job not diverted off the unhealthy shard")
	}
	if f.shards[0].routedAround.Load() == 0 {
		t.Fatal("diversion not counted")
	}
	if ss := f.ShardStats()[0]; !ss.Unhealthy || ss.HealthTransitions != 1 {
		t.Fatalf("shard 0 stats = unhealthy:%v transitions:%d, want true/1",
			ss.Unhealthy, ss.HealthTransitions)
	}

	close(release)
	if err := stuck.Wait(); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(t, 2*time.Second, func() bool { return !f.shards[0].unhealthy.Load() }) {
		t.Fatal("recovered shard 0 never re-admitted")
	}
	for _, j := range queued {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.shards[0].healthFlips.Load(); got != 2 {
		t.Fatalf("health transitions = %d after one full episode, want 2", got)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("fleet imbalance: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
}

// TestSupervisorIgnoresBusyShard: heavy but progressing load must never trip
// the supervisor — progress epochs keep advancing, so no shard is marked
// unhealthy even with a backlogged inbox.
func TestSupervisorIgnoresBusyShard(t *testing.T) {
	f := NewFleet(FleetConfig{
		Shards: 2, ShardSize: 1, NoSteal: true,
		Health: HealthConfig{CheckEvery: 2 * time.Millisecond, StallAfter: 10 * time.Millisecond},
	})
	defer f.Close()
	var jobs []*Job
	for i := 0; i < 400; i++ {
		jobs = append(jobs, f.SubmitAffinity(context.Background(), 0, func(w *Worker) {
			for n := 0; n < 200; n++ {
				w.Spawn(func(*Worker) {})
			}
			w.Sync()
		}))
	}
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.shards[0].healthFlips.Load(); got != 0 {
		t.Fatalf("busy-but-progressing shard flipped health %d times", got)
	}
}

// TestWedgedShardTripsAndRecovers runs the supervisor against the chaos
// wedge site end to end: shard 0 freezes for a window, is tripped unhealthy,
// and once the wedge lifts and its backlog executes the shard re-admits.
// Cross-shard stealing is disabled so the backlog deterministically stays
// observable (with stealing on, idle siblings may drain the inbox faster
// than the supervisor can see it — which is the desired production behavior,
// and what the chaos integration phase exercises under real load). Spawned
// == Executed + Cancelled must balance fleet-wide afterwards.
func TestWedgedShardTripsAndRecovers(t *testing.T) {
	inj := chaos.New(chaos.Scenario{
		Seed:  7,
		Wedge: chaos.WedgeSpec{Shard: 0, After: 30 * time.Millisecond, For: 250 * time.Millisecond},
	})
	f := NewFleet(FleetConfig{
		Shards: 2, ShardSize: 2, NoSteal: true,
		Health:  HealthConfig{CheckEvery: 5 * time.Millisecond, StallAfter: 40 * time.Millisecond},
		Runtime: Config{Chaos: inj},
	})
	defer f.Close()

	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.SubmitAffinity(context.Background(), 0, func(w *Worker) {
				for n := 0; n < 50; n++ {
					w.Spawn(func(*Worker) {})
				}
				w.Sync()
			})
			time.Sleep(time.Millisecond)
		}
	}()

	tripped := pollUntil(t, 2*time.Second, func() bool { return f.shards[0].unhealthy.Load() })
	close(stop)
	<-fed
	if !tripped {
		t.Fatal("wedged shard 0 never marked unhealthy")
	}
	if !pollUntil(t, 3*time.Second, func() bool { return !f.shards[0].unhealthy.Load() }) {
		t.Fatal("shard 0 never re-admitted after the wedge lifted")
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Spawned != s.Executed+s.Cancelled {
		t.Fatalf("fleet imbalance after wedge: spawned=%d executed=%d cancelled=%d",
			s.Spawned, s.Executed, s.Cancelled)
	}
	if inj.Counts().WedgePauses == 0 {
		t.Fatal("wedge site never fired")
	}
}
