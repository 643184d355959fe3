package xkaapi_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xkaapi"
	"xkaapi/komp"
	"xkaapi/par"
	"xkaapi/quark"
)

// TestChaosSweepAcrossParadigms is the seeded failure sweep of the
// robustness harness: with panic injection armed at every stage boundary the
// scheduler owns — spawn (runBody before a fork-join or dataflow body),
// steal (injected panics land on thieves as often as on owners), adaptive
// split/extract (the loop-panic site in runChunk) and batch-style fan-out
// (one root spawning many independent children, the shape server batching
// submits) — every paradigm layer that rides the shared core pool must keep
// its contract: each Wait returns (no hangs), failures surface only as
// *PanicError carrying the injected value (or cancellations downstream of
// one), the pool keeps serving, and the drained fleet balances Spawned ==
// Executed + Cancelled.
//
// Layers driven: xkaapi itself (fork-join, dataflow, Foreach), par
// (Do/ForEach/Sort), quark (NewOnRuntime dependency chains) and komp
// (NewTeamOnRuntime regions) — the four that can share one externally built
// runtime. cilk, gomp and tbbsched own private engines with no injector and
// are covered by their own failure tests.
func TestChaosSweepAcrossParadigms(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, shards := range []int{1, 2} {
			inj := xkaapi.NewChaosInjector(xkaapi.ChaosScenario{
				Seed:      seed,
				TaskPanic: 0.02,
				LoopPanic: 0.02,
				StealFail: 0.2,
			})
			rt := xkaapi.New(
				xkaapi.WithWorkers(4),
				xkaapi.WithShards(shards),
				xkaapi.WithSeed(seed),
				xkaapi.WithChaos(inj),
			)
			sweepOnce(t, rt, inj)
			rt.Close()
			s := rt.Stats()
			if s.Spawned != s.Executed+s.Cancelled {
				t.Fatalf("seed %d shards %d: imbalance spawned=%d executed=%d cancelled=%d",
					seed, shards, s.Spawned, s.Executed, s.Cancelled)
			}
		}
	}
}

// checkChaosErr accepts the outcomes a chaos-injected failure may surface
// as: nil (the draws missed this job), a *PanicError whose value is the
// injected marker, or — only when the layer's region observed a concurrent
// failure — a cancellation wrapping one.
func checkChaosErr(t *testing.T, layer string, err error) (failed bool) {
	t.Helper()
	if err == nil {
		return false
	}
	var pe *xkaapi.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: failed with %T (%v), want *PanicError", layer, err, err)
	}
	return true
}

func sweepOnce(t *testing.T, rt *xkaapi.Runtime, inj *xkaapi.ChaosInjector) {
	var failures atomic.Int64
	var wg sync.WaitGroup
	run := func(layer string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if checkChaosErr(t, layer, fn()) {
					failures.Add(1)
				}
			}
		}()
	}

	// xkaapi fork-join: spawn/steal boundaries.
	run("forkjoin", func() error {
		return rt.Run(func(p *xkaapi.Proc) {
			var fib func(p *xkaapi.Proc, r *int64, n int)
			fib = func(p *xkaapi.Proc, r *int64, n int) {
				if n < 2 {
					*r = int64(n)
					return
				}
				var a, b int64
				p.Spawn(func(p *xkaapi.Proc) { fib(p, &a, n-1) })
				fib(p, &b, n-2)
				p.Sync()
				*r = a + b
			}
			var r int64
			fib(p, &r, 10)
		})
	})

	// xkaapi dataflow: a produce → transform → consume chain per job.
	run("dataflow", func() error {
		return rt.Run(func(p *xkaapi.Proc) {
			var h xkaapi.Handle
			data := make([]int64, 256)
			p.SpawnTask(func(*xkaapi.Proc) {
				for i := range data {
					data[i] = int64(i)
				}
			}, xkaapi.Write(&h))
			p.SpawnTask(func(*xkaapi.Proc) {
				for i := range data {
					data[i] *= 2
				}
			}, xkaapi.ReadWrite(&h))
			var sum int64
			p.SpawnTask(func(*xkaapi.Proc) {
				for _, v := range data {
					sum += v
				}
			}, xkaapi.Read(&h))
			p.Sync()
		})
	})

	// xkaapi adaptive loop: split/extract boundary via the loop-panic site.
	run("foreach", func() error {
		return rt.Run(func(p *xkaapi.Proc) {
			xkaapi.ForeachGrain(p, 0, 4096, 32, func(*xkaapi.Proc, int, int) {})
		})
	})

	// Batch-style fan-out: one root, many independent children — the shape
	// the server's request coalescing submits.
	run("batch", func() error {
		return rt.Run(func(p *xkaapi.Proc) {
			for i := 0; i < 32; i++ {
				p.Spawn(func(*xkaapi.Proc) {})
			}
			p.Sync()
		})
	})

	// par: algorithmic layer over the same pool.
	run("par", func() error {
		if err := par.Do(rt,
			func(*xkaapi.Proc) {},
			func(*xkaapi.Proc) {},
			func(*xkaapi.Proc) {},
		); err != nil {
			return err
		}
		return par.ForEach(rt, 0, 1024, func(*xkaapi.Proc, int, int) {})
	})

	// quark: dependency-chained insertions on the shared runtime.
	run("quark", func() error {
		q := quark.NewOnRuntime(rt)
		defer q.Delete()
		var x int64
		return q.Run(func(q *quark.Quark) {
			for i := 0; i < 8; i++ {
				q.InsertTask(func() { x++ }, quark.Arg{Ptr: &x, Flag: quark.INOUT})
			}
		})
	})

	// komp: OpenMP-style regions on the borrowed runtime.
	run("komp", func() error {
		tm := komp.NewTeamOnRuntime(rt, 4)
		defer tm.Close()
		return tm.Parallel(func(tc *komp.TC) {
			tc.Single(func() {})
		})
	})

	wg.Wait()

	if failures.Load() == 0 {
		t.Fatal("panic injection armed but no layer ever observed a failure")
	}
	if c := inj.Counts(); c.TaskPanics == 0 && c.LoopPanics == 0 {
		t.Fatalf("no panic site fired: %+v", c)
	}

	// Pool survival: after the storm, clean work still completes (retry past
	// unlucky draws; the sites must not fire every time).
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		ok = rt.Run(func(*xkaapi.Proc) {}) == nil
	}
	if !ok {
		t.Fatal("pool no longer serves clean jobs after the sweep")
	}
}
