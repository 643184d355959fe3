package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"xkaapi/internal/chaos"
)

// jobStatsStressPool is the slice of the submission surface this stress
// test needs, so one harness covers a bare shard and a sharded Fleet.
type jobStatsStressPool interface {
	Submit(fn func(*Worker)) *Job
	Stats() Stats
	Wait() error
}

// stressJobStats submits a batch of deterministic spawn trees, watches every
// job's Stats mid-flight from dedicated goroutines, and then checks the
// quiescent contracts. The mid-flight contract for the batched Executed
// counter is monotonicity: snapshots are lower bounds that only grow, never
// overshoot (a snapshot above the final exact count would prove the cache
// double-published). The quiescent contracts are exactness per job and the
// pool-wide Spawned == Executed + Cancelled balance. Chaos worker stalls
// (seeded, so the fault pattern replays) stretch the in-flight window and
// force flush-at-park transitions to happen mid-observation.
func stressJobStats(t *testing.T, pool jobStatsStressPool) {
	const (
		jobs  = 24
		width = 48 // children per root; each job executes width+1 bodies
	)
	handles := make([]*Job, jobs)
	for i := range handles {
		handles[i] = pool.Submit(func(w *Worker) {
			for k := 0; k < width; k++ {
				w.Spawn(func(*Worker) {})
			}
			w.Sync()
		})
	}

	var wg sync.WaitGroup
	for i, j := range handles {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			var prev JobStats
			for !j.Done() {
				s := j.Stats()
				if s.Executed < prev.Executed || s.Cancelled < prev.Cancelled || s.Panicked < prev.Panicked {
					t.Errorf("job %d stats went backwards: %+v after %+v", i, s, prev)
					return
				}
				if s.Executed > width+1 {
					t.Errorf("job %d mid-flight Executed = %d overshoots the true count %d", i, s.Executed, width+1)
					return
				}
				prev = s
				runtime.Gosched()
			}
		}(i, j)
	}

	for i, j := range handles {
		if err := j.Wait(); err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
	}
	wg.Wait()

	// Quiescence: exact per-job counts once the workers' last batches land
	// (their own idle transitions, microseconds behind Wait).
	for i, j := range handles {
		waitJobStats(t, fmt.Sprintf("job %d", i), j, JobStats{Executed: width + 1})
	}
	if err := pool.Wait(); err != nil {
		t.Fatalf("pool drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := pool.Stats()
		if s.Spawned == s.Executed+s.Cancelled {
			if want := int64(jobs * (width + 1)); s.Executed != want {
				t.Errorf("quiescent Executed = %d, want %d", s.Executed, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never balanced: spawned=%d executed=%d cancelled=%d",
				s.Spawned, s.Executed, s.Cancelled)
		}
		runtime.Gosched()
	}
}

// TestJobStatsStress runs the mid-flight stats contract under seeded chaos
// worker stalls, on a single Runtime and on a sharded Fleet (where roots
// land on different shards and cross-shard steals migrate the per-job
// batches between workers of different runtimes).
func TestJobStatsStress(t *testing.T) {
	scenario := chaos.Scenario{
		Seed:        7,
		WorkerStall: chaos.Pulse{Prob: 0.02, For: 100 * time.Microsecond},
	}
	t.Run("runtime", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4, Chaos: chaos.New(scenario)})
		defer rt.Close()
		stressJobStats(t, rt)
	})
	t.Run("fleet", func(t *testing.T) {
		f := NewFleet(FleetConfig{
			Shards:    2,
			ShardSize: 2,
			Runtime:   Config{Chaos: chaos.New(scenario)},
		})
		defer f.Close()
		stressJobStats(t, f)
	})
}
