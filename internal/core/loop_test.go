package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIterations(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		withRuntime(t, Config{Workers: workers}, func(rt *Runtime) {
			const n = 100000
			hits := make([]int32, n)
			rt.RunRoot(func(w *Worker) {
				w.ForEach(0, n, func(w *Worker, lo, hi int64) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: iteration %d executed %d times", workers, i, h)
				}
			}
		})
	}
}

func TestForEachEmptyAndTinyRanges(t *testing.T) {
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		rt.RunRoot(func(w *Worker) {
			ran := false
			w.ForEach(5, 5, func(*Worker, int64, int64) { ran = true })
			if ran {
				t.Error("body ran for empty range")
			}
			w.ForEach(7, 3, func(*Worker, int64, int64) { ran = true })
			if ran {
				t.Error("body ran for inverted range")
			}
			var count int64
			w.ForEach(0, 1, func(_ *Worker, lo, hi int64) {
				atomic.AddInt64(&count, hi-lo)
			})
			if count != 1 {
				t.Errorf("single-iteration loop executed %d iterations", count)
			}
		})
	})
}

func TestForEachExplicitGrain(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		const n = 1000
		var maxChunk atomic.Int64
		var total atomic.Int64
		rt.RunRoot(func(w *Worker) {
			w.forEach(0, n, 10, func(_ *Worker, lo, hi int64) {
				if sz := hi - lo; sz > maxChunk.Load() {
					maxChunk.Store(sz)
				}
				total.Add(hi - lo)
			})
		})
		if total.Load() != n {
			t.Fatalf("total=%d want %d", total.Load(), n)
		}
		if maxChunk.Load() > 10 {
			t.Fatalf("chunk of %d iterations exceeds grain=10", maxChunk.Load())
		}
	})
}

func TestForEachNegativeBounds(t *testing.T) {
	withRuntime(t, Config{Workers: 3}, func(rt *Runtime) {
		var sum atomic.Int64
		rt.RunRoot(func(w *Worker) {
			w.ForEach(-500, 500, func(_ *Worker, lo, hi int64) {
				s := int64(0)
				for i := lo; i < hi; i++ {
					s += i
				}
				sum.Add(s)
			})
		})
		if got := sum.Load(); got != -500 {
			t.Fatalf("sum=%d want -500", got)
		}
	})
}

func TestForEachNested(t *testing.T) {
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		const n, m = 64, 64
		hits := make([]int32, n*m)
		rt.RunRoot(func(w *Worker) {
			w.ForEach(0, n, func(w *Worker, lo, hi int64) {
				for i := lo; i < hi; i++ {
					i := i
					w.ForEach(0, m, func(_ *Worker, jlo, jhi int64) {
						for j := jlo; j < jhi; j++ {
							atomic.AddInt32(&hits[i*m+j], 1)
						}
					})
				}
			})
		})
		for idx, h := range hits {
			if h != 1 {
				t.Fatalf("cell %d executed %d times", idx, h)
			}
		}
	})
}

func TestForEachUnbalancedBodies(t *testing.T) {
	// Iterations with wildly different costs must still all run; this is the
	// scenario adaptive splitting exists for.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		const n = 2000
		var sum atomic.Int64
		rt.RunRoot(func(w *Worker) {
			w.forEach(0, n, 4, func(_ *Worker, lo, hi int64) {
				for i := lo; i < hi; i++ {
					work := 1
					if i%97 == 0 {
						work = 5000
					}
					acc := int64(0)
					for k := 0; k < work; k++ {
						acc++
					}
					sum.Add(acc / int64(work))
				}
			})
		})
		if got := sum.Load(); got != n {
			t.Fatalf("sum=%d want %d", got, n)
		}
	})
}

func TestForEachMixedWithTasks(t *testing.T) {
	// A foreach may run concurrently with fork-join tasks of the same frame.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var loopSum, taskSum atomic.Int64
		rt.RunRoot(func(w *Worker) {
			for i := 0; i < 32; i++ {
				w.Spawn(func(*Worker) { taskSum.Add(1) })
			}
			w.ForEach(0, 10000, func(_ *Worker, lo, hi int64) {
				loopSum.Add(hi - lo)
			})
			w.Sync()
		})
		if loopSum.Load() != 10000 || taskSum.Load() != 32 {
			t.Fatalf("loopSum=%d taskSum=%d", loopSum.Load(), taskSum.Load())
		}
	})
}

func TestForEachWithoutAggregation(t *testing.T) {
	withRuntime(t, Config{Workers: 4, NoAggregation: true}, func(rt *Runtime) {
		const n = 50000
		var total atomic.Int64
		rt.RunRoot(func(w *Worker) {
			w.ForEach(0, n, func(_ *Worker, lo, hi int64) {
				total.Add(hi - lo)
			})
		})
		if total.Load() != n {
			t.Fatalf("total=%d want %d", total.Load(), n)
		}
	})
}

func TestForEachQuickExactlyOnce(t *testing.T) {
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		f := func(n uint16, grain uint8) bool {
			size := int64(n)
			hits := make([]int32, size)
			body := func(_ *Worker, lo, hi int64) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			}
			rt.RunRoot(func(w *Worker) {
				if grain == 0 {
					w.ForEach(0, size, body) // the default grain
				} else {
					w.forEach(0, size, int64(grain), body)
				}
			})
			for _, h := range hits {
				if h != 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForEachSplitStats(t *testing.T) {
	// With several workers and a long loop, stealing must actually happen
	// through the splitter (reserved slices count as split tasks). The loop
	// runs for milliseconds, not a fraction of one, so that thieves woken
	// when it opens get a CPU before it ends even while other test
	// processes load the machine.
	withRuntime(t, Config{Workers: 4}, func(rt *Runtime) {
		var spin atomic.Int64
		rt.RunRoot(func(w *Worker) {
			w.forEach(0, 1<<20, 64, func(_ *Worker, lo, hi int64) {
				for i := lo; i < hi; i++ {
					spin.Add(1)
				}
			})
		})
		s := rt.Stats()
		if s.SplitTasks == 0 {
			t.Skipf("no splits observed (machine too fast/small); stats: %+v", s)
		}
	})
}

// A thief must not post steal requests to a loop whose splitter has nothing
// left to give: a live interval under 2·grain, or an owner on its last
// chunk. Before the splitter could say so, idle workers spun on such loops
// — on this shape about 200 000 splitter calls for 300 tasks, and tens of
// thousands of parks aborted. The count needs no clock: at least one
// splitter call in four must yield a task.
func TestForEachSplitsYield(t *testing.T) {
	withRuntime(t, Config{Workers: 2}, func(rt *Runtime) {
		var total atomic.Int64
		rt.RunRoot(func(w *Worker) {
			for range 200 {
				w.ForEach(0, 2_000_000, func(_ *Worker, lo, hi int64) {
					var s int64
					for i := lo; i < hi; i++ {
						s += i
					}
					total.Add(s)
				})
			}
		})
		if want := int64(200) * (2_000_000 * 1_999_999 / 2); total.Load() != want {
			t.Fatalf("sum %d, want %d", total.Load(), want)
		}
		s := rt.Stats()
		t.Logf("splits %d, split tasks %d, parks %d", s.Splits, s.SplitTasks, s.Parks)
		if s.Splits > 4*s.SplitTasks {
			t.Errorf("%d splitter calls yielded %d tasks: fewer than one in four", s.Splits, s.SplitTasks)
		}
	})
}
