package xkaapi_test

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"

	"xkaapi"
	"xkaapi/cilk"
	"xkaapi/gomp"
	"xkaapi/tbbsched"
)

func newRT(t *testing.T, opts ...xkaapi.Option) *xkaapi.Runtime {
	t.Helper()
	rt := xkaapi.New(opts...)
	t.Cleanup(rt.Close)
	return rt
}

func TestRunExecutesRoot(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(2))
	ran := false
	rt.Run(func(p *xkaapi.Proc) { ran = true })
	if !ran {
		t.Fatal("root did not run")
	}
}

func TestWorkersOption(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(3))
	if got := rt.Workers(); got != 3 {
		t.Fatalf("Workers()=%d want 3", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	rt := newRT(t)
	if rt.Workers() < 1 {
		t.Fatalf("Workers()=%d", rt.Workers())
	}
}

func fib(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	p.Spawn(func(p *xkaapi.Proc) { fib(p, &r1, n-1) })
	fib(p, &r2, n-2)
	p.Sync()
	*r = r1 + r2
}

func TestFibPaperProgram(t *testing.T) {
	// The exact program of the paper's Fig. 1: one spawned task per node,
	// one inline recursive call, one sync.
	rt := newRT(t, xkaapi.WithWorkers(4))
	var r int64
	rt.Run(func(p *xkaapi.Proc) { fib(p, &r, 22) })
	if r != 17711 {
		t.Fatalf("fib(22)=%d want 17711", r)
	}
}

func TestProcIDWithinRange(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4))
	var bad atomic.Int32
	rt.Run(func(p *xkaapi.Proc) {
		for i := 0; i < 200; i++ {
			p.Spawn(func(p *xkaapi.Proc) {
				if p.ID() < 0 || p.ID() >= p.NumWorkers() {
					bad.Add(1)
				}
			})
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker IDs out of range")
	}
}

func TestDataflowAccessBuilders(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4))
	var h xkaapi.Handle
	v := 0
	rt.Run(func(p *xkaapi.Proc) {
		p.SpawnTask(func(*xkaapi.Proc) { v = 3 }, xkaapi.Write(&h))
		p.SpawnTask(func(*xkaapi.Proc) { v *= 7 }, xkaapi.ReadWrite(&h))
		got := 0
		p.SpawnTask(func(*xkaapi.Proc) { got = v }, xkaapi.Read(&h))
		p.Sync()
		if got != 21 {
			t.Errorf("dataflow result %d want 21", got)
		}
	})
}

func TestCumulWriteBuilder(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4))
	var h xkaapi.Handle
	var acc atomic.Int64
	var got int64
	rt.Run(func(p *xkaapi.Proc) {
		for i := 0; i < 64; i++ {
			p.SpawnTask(func(*xkaapi.Proc) { acc.Add(1) }, xkaapi.CumulWrite(&h))
		}
		p.SpawnTask(func(*xkaapi.Proc) { got = acc.Load() }, xkaapi.Read(&h))
		p.Sync()
	})
	if got != 64 {
		t.Fatalf("got %d want 64", got)
	}
}

func TestRuntimeForeach(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4))
	const n = 50000
	hits := make([]int32, n)
	rt.Foreach(0, n, func(_ *xkaapi.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestWithoutAggregation(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(4), xkaapi.WithoutAggregation())
	var r int64
	rt.Run(func(p *xkaapi.Proc) { fib(p, &r, 18) })
	if r != 2584 {
		t.Fatalf("fib(18)=%d want 2584", r)
	}
}

func TestNestedRunsSequentially(t *testing.T) {
	rt := newRT(t, xkaapi.WithWorkers(2))
	total := 0
	for i := 0; i < 5; i++ {
		rt.Run(func(p *xkaapi.Proc) { total++ })
	}
	if total != 5 {
		t.Fatalf("total=%d want 5", total)
	}
}

// TestWorkerSplit: the n workers asked for (GOMAXPROCS for 0) are spread
// over min(s, n) equal shards, so Workers() is never below n and at most
// s − 1 above it, and every shape — one shard included — serves both
// submit forms and balances its counters.
func TestWorkerSplit(t *testing.T) {
	for _, tc := range []struct{ n, s, wantWorkers int }{
		{1, 4, 1},
		{2, 2, 2},
		{7, 2, 8},
		{8, 4, 8},
		{0, 2, 0}, // GOMAXPROCS workers: the bounds below decide
		{3, 0, 3}, // no WithShards: one shard
	} {
		opts := []xkaapi.Option{xkaapi.WithWorkers(tc.n)}
		if tc.s > 0 {
			opts = append(opts, xkaapi.WithShards(tc.s))
		}
		rt := newRT(t, opts...)
		asked := tc.n
		if asked == 0 {
			asked = runtime.GOMAXPROCS(0)
		}
		wantShards := min(max(tc.s, 1), asked)
		if got := rt.Shards(); got != wantShards {
			t.Errorf("n=%d s=%d: Shards() = %d, want %d", tc.n, tc.s, got, wantShards)
		}
		if got := len(rt.ShardStats()); got != wantShards {
			t.Errorf("n=%d s=%d: len(ShardStats()) = %d, want %d", tc.n, tc.s, got, wantShards)
		}
		if got := rt.Workers(); got < asked || got >= asked+wantShards || (tc.wantWorkers > 0 && got != tc.wantWorkers) {
			t.Errorf("n=%d s=%d: Workers() = %d, want %d (at least %d, fewer than %d)",
				tc.n, tc.s, got, tc.wantWorkers, asked, asked+wantShards)
		}
		var ran atomic.Int64
		body := func(p *xkaapi.Proc) {
			p.Spawn(func(*xkaapi.Proc) { ran.Add(1) })
		}
		rt.Submit(body)
		rt.SubmitCtx(context.Background(), body)
		if err := rt.Wait(); err != nil {
			t.Fatalf("n=%d s=%d: Wait: %v", tc.n, tc.s, err)
		}
		if ran.Load() != 2 {
			t.Errorf("n=%d s=%d: %d of 2 jobs ran their child", tc.n, tc.s, ran.Load())
		}
		if st := rt.Stats(); st.Spawned != 4 || st.Spawned != st.Executed+st.Cancelled {
			t.Errorf("n=%d s=%d: spawned=%d executed=%d cancelled=%d, want 4 = executed + cancelled",
				tc.n, tc.s, st.Spawned, st.Executed, st.Cancelled)
		}
	}
}

// TestWorkersHoldNoThreads: a worker is a goroutine, not an OS thread, in
// all four schedulers — 64 live pools of 4 workers that have each run a
// fork-join job may not have made the process create threads for them
// (with every worker locked to an OS thread the same loop creates over 100).
func TestWorkersHoldNoThreads(t *testing.T) {
	const pools, workers, maxNewThreads = 64, 4, 32
	for _, tc := range []struct {
		name string
		open func() (run func(), close func())
	}{
		{"xkaapi", func() (func(), func()) {
			rt := xkaapi.New(xkaapi.WithWorkers(workers))
			return func() {
				rt.Run(func(p *xkaapi.Proc) {
					for i := 0; i < 2*workers; i++ {
						p.Spawn(func(*xkaapi.Proc) {})
					}
				})
			}, rt.Close
		}},
		{"cilk", func() (func(), func()) {
			pool := cilk.NewPool(workers)
			return func() {
				pool.Run(func(w *cilk.Worker) {
					for i := 0; i < 2*workers; i++ {
						w.Spawn(func(*cilk.Worker) {})
					}
					w.Sync()
				})
			}, pool.Close
		}},
		{"tbbsched", func() (func(), func()) {
			s := tbbsched.NewScheduler(workers)
			return func() {
				s.Run(func(c *tbbsched.Context) {
					for i := 0; i < 2*workers; i++ {
						c.Spawn(tbbsched.FuncTask(func(*tbbsched.Context) {}))
					}
					c.Wait()
				})
			}, s.Close
		}},
		{"gomp", func() (func(), func()) {
			tm := gomp.NewTeam(workers)
			return func() { tm.Parallel(func(*gomp.TC) {}) }, tm.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			threads := pprof.Lookup("threadcreate")
			before := threads.Count()
			for i := 0; i < pools; i++ {
				run, closePool := tc.open()
				defer closePool()
				run()
			}
			if grew := threads.Count() - before; grew >= maxNewThreads {
				t.Fatalf("%d live pools of %d workers made the process create %d threads, want < %d",
					pools, workers, grew, maxNewThreads)
			}
		})
	}
}
