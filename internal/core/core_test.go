package core

import (
	"sync/atomic"
	"testing"
	"time"
)

func withRuntime(t *testing.T, cfg Config, fn func(rt *Runtime)) {
	t.Helper()
	rt := NewRuntime(cfg)
	defer rt.Close()
	fn(rt)
}

func TestRunRootExecutes(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		ran := false
		rt.RunRoot(func(w *Worker) { ran = true })
		if !ran {
			t.Fatal("root body did not run")
		}
	})
}

func TestSpawnSyncSequentialSemantics(t *testing.T) {
	// With one worker and no steals the execution order must follow the
	// sequential elision of the program.
	withRuntime(t, Config{Workers: 1}, func(rt *Runtime) {
		var a, b int
		rt.RunRoot(func(w *Worker) {
			w.Spawn(func(*Worker) { a = 1 })
			b = 2
			w.Sync()
			if a != 1 {
				t.Error("child did not complete before Sync returned")
			}
		})
		if a != 1 || b != 2 {
			t.Fatalf("a=%d b=%d", a, b)
		}
	})
}

func fibTask(w *Worker, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	w.Spawn(func(w *Worker) { fibTask(w, &r1, n-1) })
	fibTask(w, &r2, n-2)
	w.Sync()
	*r = r1 + r2
}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func TestFibForkJoin(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		withRuntime(t, Config{Workers: workers}, func(rt *Runtime) {
			var r int64
			rt.RunRoot(func(w *Worker) { fibTask(w, &r, 20) })
			if want := fibSeq(20); r != want {
				t.Fatalf("workers=%d: fib(20)=%d want %d", workers, r, want)
			}
		})
	}
}

func TestFibWithoutAggregation(t *testing.T) {
	withRuntime(t, Config{Workers: 4, NoAggregation: true}, func(rt *Runtime) {
		var r int64
		rt.RunRoot(func(w *Worker) { fibTask(w, &r, 18) })
		if want := fibSeq(18); r != want {
			t.Fatalf("fib(18)=%d want %d", r, want)
		}
	})
}

func TestImplicitSyncAtTaskEnd(t *testing.T) {
	// The model is fully strict: a task does not complete (and so does not
	// release its parent's Sync) before its own children do.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var leaves atomic.Int32
		rt.RunRoot(func(w *Worker) {
			for i := 0; i < 8; i++ {
				w.Spawn(func(w *Worker) {
					for j := 0; j < 8; j++ {
						w.Spawn(func(*Worker) { leaves.Add(1) })
					}
					// no explicit Sync: implicit at end of body
				})
			}
			w.Sync()
			if n := leaves.Load(); n != 64 {
				t.Errorf("after Sync: %d leaves, want 64", n)
			}
		})
	})
}

func TestMultipleRunRoots(t *testing.T) {
	withRuntime(t, Config{Workers: 3}, func(rt *Runtime) {
		for iter := 0; iter < 10; iter++ {
			var sum atomic.Int64
			rt.RunRoot(func(w *Worker) {
				for i := 1; i <= 100; i++ {
					i := i
					w.Spawn(func(*Worker) { sum.Add(int64(i)) })
				}
			})
			if got := sum.Load(); got != 5050 {
				t.Fatalf("iter %d: sum=%d want 5050", iter, got)
			}
		}
	})
}

func TestSyncWithoutChildren(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		rt.RunRoot(func(w *Worker) {
			w.Sync() // must be a no-op, not a hang
		})
	})
}

func TestDataflowChain(t *testing.T) {
	// A chain x -> y -> z of RAW dependencies must execute in order even
	// though tasks are spawned at once.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var h Handle
		val := 0
		order := make([]int, 0, 3)
		rt.RunRoot(func(w *Worker) {
			w.SpawnTask(func(*Worker) { val = 1; order = append(order, 1) }, Access{&h, ModeWrite})
			w.SpawnTask(func(*Worker) { val *= 10; order = append(order, 2) }, Access{&h, ModeReadWrite})
			w.SpawnTask(func(*Worker) { val += 5; order = append(order, 3) }, Access{&h, ModeReadWrite})
			w.Sync()
		})
		if val != 15 {
			t.Fatalf("val=%d want 15 (order %v)", val, order)
		}
	})
}

func TestDataflowDiamond(t *testing.T) {
	// w writes, two readers read concurrently, final writer waits for both.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var h Handle
		var src int
		var r1, r2 int
		var final int
		rt.RunRoot(func(w *Worker) {
			w.SpawnTask(func(*Worker) { src = 42 }, Access{&h, ModeWrite})
			w.SpawnTask(func(*Worker) { r1 = src }, Access{&h, ModeRead})
			w.SpawnTask(func(*Worker) { r2 = src }, Access{&h, ModeRead})
			w.SpawnTask(func(*Worker) { final = r1 + r2 }, Access{&h, ModeWrite})
			w.Sync()
		})
		if final != 84 {
			t.Fatalf("final=%d want 84", final)
		}
	})
}

func TestDataflowIndependentHandles(t *testing.T) {
	// Tasks on distinct handles must not serialize; just verify they all run
	// and the per-handle chains stay ordered.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		const chains = 8
		handles := make([]Handle, chains)
		counters := make([]int, chains)
		rt.RunRoot(func(w *Worker) {
			for step := 0; step < 50; step++ {
				for c := 0; c < chains; c++ {
					c, step := c, step
					w.SpawnTask(func(*Worker) {
						if counters[c] != step {
							t.Errorf("chain %d: step %d ran at position %d", c, step, counters[c])
						}
						counters[c]++
					}, Access{&handles[c], ModeReadWrite})
				}
			}
			w.Sync()
		})
		for c, n := range counters {
			if n != 50 {
				t.Fatalf("chain %d advanced %d times, want 50", c, n)
			}
		}
	})
}

func TestDataflowCumulWrite(t *testing.T) {
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var h Handle
		var acc atomic.Int64
		var final int64
		rt.RunRoot(func(w *Worker) {
			w.SpawnTask(func(*Worker) { acc.Store(100) }, Access{&h, ModeWrite})
			for i := 1; i <= 20; i++ {
				i := int64(i)
				w.SpawnTask(func(*Worker) { acc.Add(i) }, Access{&h, ModeCumulWrite})
			}
			w.SpawnTask(func(*Worker) { final = acc.Load() }, Access{&h, ModeRead})
			w.Sync()
		})
		if final != 100+210 {
			t.Fatalf("final=%d want 310", final)
		}
	})
}

func TestDataflowSelfDependency(t *testing.T) {
	// A task with two accesses to the same handle must not wait on itself.
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		var h Handle
		ran := false
		rt.RunRoot(func(w *Worker) {
			w.SpawnTask(func(*Worker) { ran = true },
				Access{&h, ModeRead}, Access{&h, ModeReadWrite})
			w.Sync()
		})
		if !ran {
			t.Fatal("self-dependent task never ran")
		}
	})
}

func TestDataflowManyGenerationsRecycling(t *testing.T) {
	// Long RW chains recycle task objects through handle frontiers; the
	// sequence numbers must prevent stale references from creating phantom
	// dependencies. 5000 generations far exceeds the free-list size.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var h Handle
		val := 0
		rt.RunRoot(func(w *Worker) {
			for i := 0; i < 5000; i++ {
				w.SpawnTask(func(*Worker) { val++ }, Access{&h, ModeReadWrite})
			}
			w.Sync()
		})
		if val != 5000 {
			t.Fatalf("val=%d want 5000", val)
		}
	})
}

func TestRecursiveDataflowTasks(t *testing.T) {
	// Unlike QUARK/StarPU/SMPSs (flat task model), X-Kaapi tasks may spawn
	// dataflow subtasks.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var h Handle
		total := 0
		rt.RunRoot(func(w *Worker) {
			w.SpawnTask(func(w *Worker) {
				var inner Handle
				local := 0
				for i := 0; i < 10; i++ {
					w.SpawnTask(func(*Worker) { local++ }, Access{&inner, ModeReadWrite})
				}
				w.Sync()
				total = local
			}, Access{&h, ModeWrite})
			w.SpawnTask(func(*Worker) { total *= 2 }, Access{&h, ModeReadWrite})
			w.Sync()
		})
		if total != 20 {
			t.Fatalf("total=%d want 20", total)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		var r int64
		rt.RunRoot(func(w *Worker) { fibTask(w, &r, 15) })
		// The second worker publishes its batched counters as it goes
		// idle, which can trail RunRoot by a scheduling quantum.
		deadline := time.Now().Add(5 * time.Second)
		s := rt.Stats()
		for s.Executed != s.Spawned && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			s = rt.Stats()
		}
		if s.Spawned == 0 || s.Executed == 0 {
			t.Fatalf("stats not collected: %+v", s)
		}
		// Executed counts spawned tasks plus the root task.
		if s.Executed != s.Spawned {
			t.Fatalf("executed %d != spawned %d", s.Executed, s.Spawned)
		}
	})
}

func TestDefaultWorkerCount(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	if rt.NumWorkers() < 1 {
		t.Fatalf("NumWorkers=%d", rt.NumWorkers())
	}
}

func TestCloseIdempotent(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Close()
	rt.Close()
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeRead: "R", ModeWrite: "W", ModeReadWrite: "RW", ModeCumulWrite: "CW", Mode(99): "?",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String()=%q want %q", m, got, want)
		}
	}
}
