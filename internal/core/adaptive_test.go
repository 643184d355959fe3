package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestIntervalResetRemaining(t *testing.T) {
	var iv Interval
	iv.Reset(10, 110)
	if got := iv.Remaining(); got != 100 {
		t.Fatalf("Remaining: got %d want 100", got)
	}
	iv.Reset(5, 5)
	if got := iv.Remaining(); got != 0 {
		t.Fatalf("Remaining on empty: got %d want 0", got)
	}
	iv.Reset(7, 3) // hi < lo clamps to empty
	if got := iv.Remaining(); got != 0 {
		t.Fatalf("Remaining on inverted: got %d want 0", got)
	}
}

func TestIntervalExtractFront(t *testing.T) {
	var iv Interval
	iv.Reset(0, 10)
	lo, hi, ok := iv.ExtractFront(4)
	if !ok || lo != 0 || hi != 4 {
		t.Fatalf("first extraction: got (%d,%d,%v)", lo, hi, ok)
	}
	lo, hi, ok = iv.ExtractFront(100)
	if !ok || lo != 4 || hi != 10 {
		t.Fatalf("clamped extraction: got (%d,%d,%v)", lo, hi, ok)
	}
	if _, _, ok := iv.ExtractFront(1); ok {
		t.Fatal("extraction from empty interval succeeded")
	}
}

func TestIntervalExtractBack(t *testing.T) {
	var iv Interval
	iv.Reset(100, 200)
	lo, hi, ok := iv.ExtractBack(30)
	if !ok || lo != 170 || hi != 200 {
		t.Fatalf("back extraction: got (%d,%d,%v)", lo, hi, ok)
	}
	if rem := iv.Remaining(); rem != 70 {
		t.Fatalf("Remaining after back extraction: got %d want 70", rem)
	}
}

func TestIntervalNegativeBase(t *testing.T) {
	var iv Interval
	iv.Reset(-50, 50)
	lo, hi, ok := iv.ExtractFront(10)
	if !ok || lo != -50 || hi != -40 {
		t.Fatalf("negative base: got (%d,%d,%v)", lo, hi, ok)
	}
}

func TestIntervalTooWidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a 2^31-wide interval did not panic")
		}
	}()
	var iv Interval
	iv.Reset(0, 1<<31)
}

// TestIntervalConcurrentExactlyOnce runs a front-extracting owner against
// back-extracting thieves and checks every iteration is claimed exactly once.
func TestIntervalConcurrentExactlyOnce(t *testing.T) {
	const n = 200000
	var iv Interval
	iv.Reset(0, n)
	claimed := make([]int32, n)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := iv.ExtractBack(37)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					claimed[i]++
				}
			}
		}()
	}
	for {
		lo, hi, ok := iv.ExtractFront(53)
		if !ok {
			break
		}
		for i := lo; i < hi; i++ {
			claimed[i]++
		}
	}
	wg.Wait()
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}

// Property: any sequence of front/back extractions with arbitrary sizes
// partitions [0,n) exactly.
func TestIntervalQuickPartition(t *testing.T) {
	f := func(sizes []uint8, fronts []bool, n uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		var iv Interval
		iv.Reset(0, int64(n))
		covered := make([]int, n)
		i := 0
		for iv.Remaining() > 0 {
			sz := int64(sizes[i%len(sizes)])%16 + 1
			front := len(fronts) == 0 || fronts[i%len(fronts)]
			var lo, hi int64
			var ok bool
			if front {
				lo, hi, ok = iv.ExtractFront(sz)
			} else {
				lo, hi, ok = iv.ExtractBack(sz)
			}
			if !ok {
				return false
			}
			for j := lo; j < hi; j++ {
				covered[j]++
			}
			i++
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitterExtrasRun: a user splitter that returns more tasks than the n
// a thief asked for loses none of them. The thief keeps the extras on its
// own deque, under both steal protocols, so every task runs, the pool
// balances, Spawned == Executed + Cancelled, and SplitTasks counts every
// task made. Both waits are bounded, so a dropped task fails the test
// instead of hanging it.
func TestSplitterExtrasRun(t *testing.T) {
	for _, noAgg := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoAggregation=%v", noAgg), func(t *testing.T) {
			withRuntime(t, Config{Workers: 2, NoAggregation: noAgg}, func(rt *Runtime) {
				var once atomic.Bool
				var made, ran atomic.Int64
				err := rt.RunRoot(func(w *Worker) {
					prev := w.SetAdaptive(&Adaptive{Split: func(thief *Worker, n int) []*Task {
						if !once.CompareAndSwap(false, true) {
							return nil
						}
						out := make([]*Task, n+1)
						for i := range out {
							out[i] = thief.NewAdaptiveTask(func(*Worker) { ran.Add(1) })
						}
						made.Store(int64(len(out)))
						return out
					}})
					defer w.SetAdaptive(prev)
					deadline := time.Now().Add(5 * time.Second)
					for m := made.Load(); m == 0 || ran.Load() < m; m = made.Load() {
						if time.Now().After(deadline) {
							t.Errorf("%d of %d split tasks ran within 5s", ran.Load(), m)
							return
						}
						runtime.Gosched()
					}
				})
				if err != nil {
					t.Fatalf("RunRoot: %v", err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for {
					s := rt.Stats()
					if s.Spawned == s.Executed+s.Cancelled {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("unbalanced after 5s: Spawned %d, Executed %d, Cancelled %d",
							s.Spawned, s.Executed, s.Cancelled)
					}
					time.Sleep(time.Millisecond)
				}
				if got, want := rt.Stats().SplitTasks, made.Load(); got != want {
					t.Errorf("SplitTasks = %d, want the %d tasks the splitter made", got, want)
				}
			})
		})
	}
}
