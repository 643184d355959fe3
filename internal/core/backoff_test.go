package core

import (
	"testing"
	"time"
)

// runIdleTrickle drives the trickle workload of the backoff and epoch test:
// tiny singleton jobs on a mostly-idle pool, each waking one worker
// that finds the root in the inbox (never in a deque), so every steal sweep
// a winding-down worker performs sees all victims empty. It returns the
// stats once the pool has quiesced (parks stop advancing across spaced
// samples).
func runIdleTrickle(t *testing.T, cfg Config) Stats {
	t.Helper()
	rt := NewRuntime(cfg)
	defer rt.Close()

	bursts := 30
	if testing.Short() {
		bursts = 10
	}
	for i := 0; i < bursts; i++ {
		if err := rt.Submit(func(*Worker) {}).Wait(); err != nil {
			t.Fatalf("burst job: %v", err)
		}
		time.Sleep(2 * time.Millisecond) // let the woken worker wind down and park
	}

	deadline := time.Now().Add(10 * time.Second)
	s := rt.Stats()
	for stable := 0; stable < 3; {
		time.Sleep(5 * time.Millisecond)
		next := rt.Stats()
		if next.Parks == s.Parks {
			stable++
		} else {
			stable = 0
		}
		s = next
		if time.Now().After(deadline) {
			t.Fatal("pool never quiesced")
		}
	}
	if s.Parks == 0 {
		t.Fatal("no parks observed on an idle pool")
	}
	if s.StealProbes == 0 {
		t.Fatal("no steal probes counted (StealProbes instrumentation broken)")
	}
	return s
}

// TestStealBackoffIdlePool exercises the steal-probe backoff and the
// work-presence epoch together on a mostly-idle pool. With the backoff, an
// empty sweep counts double against the spin budget, so a worker parks
// after at most 2 sweeps of at most 2N probes each (without it, the budget
// was 4 sweeps per park); with the epoch on top, the second sweep of each
// wind-down is skipped outright — its result cannot differ while the epoch
// is unchanged — leaving ~1 sweep per park. The bound sits at 2 sweeps'
// worth per park: above the epoch's expectation of one, below the
// backoff-only behavior of two-plus — i.e. the probes/park ratio a previous
// revision merely bounded at 3 sweeps' worth has measurably tightened, and
// the skips are observable in Stats.EpochSkips next to StealProbes and
// Parks.
func TestStealBackoffIdlePool(t *testing.T) {
	const workers = 4
	s := runIdleTrickle(t, Config{Workers: workers})
	maxProbes := s.Parks * 2 * 2 * (workers - 1)
	if s.StealProbes > maxProbes {
		t.Fatalf("StealProbes=%d > %d (Parks=%d * 2 sweeps * 2(N-1)): idle probing not limited",
			s.StealProbes, maxProbes, s.Parks)
	}
	if s.EpochSkips == 0 {
		t.Fatal("no epoch skips on an idle trickle (work-presence epoch not engaging)")
	}
}
