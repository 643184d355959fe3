package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submitFib submits a fork-join fib job and returns the result slot and
// the job handle.
func submitFib(rt *Runtime, n int) (*int64, *Job) {
	r := new(int64)
	return r, rt.Submit(func(w *Worker) { fibTask(w, r, n) })
}

// TestSubmitConcurrentStress is the acceptance workload: 8 external
// goroutines each complete 100 mixed jobs — fork-join spawns, adaptive
// loops, and dataflow access chains — on one shared pool, with every
// result checked and the scheduler counters balancing afterwards.
func TestSubmitConcurrentStress(t *testing.T) {
	const (
		clients       = 8
		jobsPerClient = 100
	)
	fibN := 18
	loopN := 20_000
	if testing.Short() {
		fibN = 12
		loopN = 2_000
	}
	wantFib := fibSeq(fibN)
	wantLoop := int64(loopN) * int64(loopN-1) / 2

	for _, workers := range []int{1, 2, 4} {
		withRuntime(t, Config{Workers: workers}, func(rt *Runtime) {
			var wg sync.WaitGroup
			errs := make(chan string, clients*jobsPerClient)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(client int) {
					defer wg.Done()
					for j := 0; j < jobsPerClient; j++ {
						switch (client + j) % 3 {
						case 0: // fork-join recursion
							r, job := submitFib(rt, fibN)
							job.Wait()
							if *r != wantFib {
								errs <- "fib mismatch"
							}
						case 1: // adaptive loop
							var sum atomic.Int64
							rt.Submit(func(w *Worker) {
								w.ForEach(0, int64(loopN), func(_ *Worker, lo, hi int64) {
									s := int64(0)
									for i := lo; i < hi; i++ {
										s += i
									}
									sum.Add(s)
								})
							}).Wait()
							if sum.Load() != wantLoop {
								errs <- "loop mismatch"
							}
						case 2: // dataflow chain: produce -> double -> read
							var h Handle
							val := 0
							got := 0
							rt.Submit(func(w *Worker) {
								w.SpawnTask(func(*Worker) { val = 21 }, Access{&h, ModeWrite})
								w.SpawnTask(func(*Worker) { val *= 2 }, Access{&h, ModeReadWrite})
								w.SpawnTask(func(*Worker) { got = val }, Access{&h, ModeRead})
								w.Sync()
							}).Wait()
							if got != 42 {
								errs <- "dataflow mismatch"
							}
						}
					}
				}(c)
			}
			wg.Wait()
			rt.Wait()
			close(errs)
			for e := range errs {
				t.Errorf("workers=%d: %s", workers, e)
			}
			// Workers publish their batched counters as they go idle,
			// trailing Wait by at most a scheduling quantum; poll briefly.
			deadline := time.Now().Add(5 * time.Second)
			s := rt.Stats()
			for s.Spawned != s.Executed && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				s = rt.Stats()
			}
			if s.Spawned != s.Executed {
				t.Errorf("workers=%d: spawned=%d executed=%d (counters must balance)",
					workers, s.Spawned, s.Executed)
			}
			if s.Spawned < clients*jobsPerClient {
				t.Errorf("workers=%d: spawned=%d, want at least one task per job (%d)",
					workers, s.Spawned, clients*jobsPerClient)
			}
		})
	}
}

// TestRuntimeWaitDrainsAllJobs submits a burst of fire-and-forget jobs and
// checks Runtime.Wait observes all of them.
func TestRuntimeWaitDrainsAllJobs(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		const n = 200
		var ran atomic.Int64
		jobs := make([]*Job, 0, n)
		for i := 0; i < n; i++ {
			jobs = append(jobs, rt.Submit(func(w *Worker) {
				w.Spawn(func(*Worker) { ran.Add(1) })
				w.Sync()
			}))
		}
		rt.Wait()
		if got := ran.Load(); got != n {
			t.Fatalf("ran=%d want %d", got, n)
		}
		for i, j := range jobs {
			if !j.Done() {
				t.Fatalf("job %d not done after Runtime.Wait", i)
			}
		}
	})
}

// TestCloseDrainsInFlightJobs checks that Close completes every job
// submitted before it instead of abandoning queued roots.
func TestCloseDrainsInFlightJobs(t *testing.T) {
	const n = 100
	var ran atomic.Int64
	rt := NewRuntime(Config{Workers: 2})
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, rt.Submit(func(w *Worker) {
			var r int64
			fibTask(w, &r, 10)
			ran.Add(1)
		}))
	}
	rt.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("Close returned with %d/%d jobs executed", got, n)
	}
	for i, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %d not done after Close", i)
		}
	}
}

// TestSubmitCloseRace hammers Submit against Close: every Submit must
// either be rejected with ErrClosed (came after Close) or yield a job that
// Close drained — never a silently stranded job whose Wait would hang.
func TestSubmitCloseRace(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		rt := NewRuntime(Config{Workers: 2})
		type res struct {
			job *Job
			ran *atomic.Bool
		}
		results := make(chan res, 64)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 16; k++ {
					var ran atomic.Bool
					job := rt.Submit(func(*Worker) { ran.Store(true) })
					if errors.Is(job.Err(), ErrClosed) {
						if !job.Done() {
							t.Error("rejected job not pre-completed")
						}
						return // pool closed; later Submits are rejected too
					}
					results <- res{job, &ran}
				}
			}()
		}
		runtime.Gosched()
		rt.Close()
		wg.Wait()
		close(results)
		for r := range results {
			select {
			case <-r.job.st.DoneChan():
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: accepted job stranded by Close (Wait would hang)", i)
			}
			if !r.ran.Load() {
				t.Fatalf("round %d: accepted job never executed", i)
			}
		}
	}
}

// TestSubmitAfterCloseErrClosed pins the lifecycle rule: submission to a
// closed runtime is rejected with the ErrClosed sentinel (no panic), the
// rejected job is pre-completed, and its body never runs.
func TestSubmitAfterCloseErrClosed(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	rt.Close()
	ran := false
	j := rt.Submit(func(*Worker) { ran = true })
	if !j.Done() {
		t.Fatal("rejected job is not pre-completed")
	}
	if err := j.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait after Close = %v, want ErrClosed", err)
	}
	if !errors.Is(j.Err(), ErrClosed) {
		t.Fatalf("Err after Close = %v, want ErrClosed", j.Err())
	}
	if ran {
		t.Fatal("rejected job's body ran")
	}
}

// TestParkWakeExternalSubmit is the park/wake regression test for the
// inbox path: with the pool fully parked (no work anywhere), an external
// Submit must promptly wake a worker — i.e. either the submitter sees the
// idle worker and signals it, or the parking worker's final anyWork scan
// sees the inbox entry. Run with -race to exercise the window.
func TestParkWakeExternalSubmit(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for _, workers := range []int{1, 4} {
		withRuntime(t, Config{Workers: workers}, func(rt *Runtime) {
			for i := 0; i < rounds; i++ {
				// Wait for the whole pool to park: every worker sits in
				// the parker's condition variable and only an explicit
				// wake-up can move one.
				deadline := time.Now().Add(5 * time.Second)
				for rt.park.Idle() != workers {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: workers never parked (idle=%d/%d)",
							i, rt.park.Idle(), workers)
					}
					time.Sleep(50 * time.Microsecond)
				}
				done := make(chan struct{})
				go func() {
					var r int64
					rt.Submit(func(w *Worker) { fibTask(w, &r, 5) }).Wait()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: submit into parked pool never completed (lost wakeup)", i)
				}
			}
		})
	}
}

// TestSubmitFromTaskBody checks the fire-and-forget rule: a task body may
// Submit an unrelated root; the submitting job completes without waiting
// for it, and the new job completes on its own.
func TestSubmitFromTaskBody(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		inner := make(chan *Job, 1)
		var innerRan atomic.Bool
		rt.Submit(func(w *Worker) {
			inner <- rt.Submit(func(*Worker) { innerRan.Store(true) })
		}).Wait()
		(<-inner).Wait()
		if !innerRan.Load() {
			t.Fatal("inner job did not run")
		}
	})
}

// TestRunRootConcurrentCallers checks the reworked RunRoot: concurrent
// callers multiplex over one pool and each call keeps its blocking,
// result-ready-on-return contract.
func TestRunRootConcurrentCallers(t *testing.T) {
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		const callers = 16
		want := fibSeq(15)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					var r int64
					rt.RunRoot(func(w *Worker) { fibTask(w, &r, 15) })
					if r != want {
						t.Errorf("fib=%d want %d", r, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestSubmitManySmallJobsThroughput floods the inbox with tiny jobs from
// many goroutines, stressing the take/park interplay rather than task
// execution.
func TestSubmitManySmallJobsThroughput(t *testing.T) {
	jobs := 2000
	if testing.Short() {
		jobs = 300
	}
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var ran atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < jobs/8; i++ {
					rt.Submit(func(*Worker) { ran.Add(1) })
				}
			}()
		}
		wg.Wait()
		rt.Wait()
		if got := ran.Load(); got != int64(jobs/8*8) {
			t.Fatalf("ran=%d want %d", got, jobs/8*8)
		}
	})
}
