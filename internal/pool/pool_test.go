package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestInboxFIFO(t *testing.T) {
	var ib Inbox[int]
	if ib.Take() != nil || ib.Size() != 0 {
		t.Fatal("empty inbox: Take or Size not empty")
	}
	vals := []int{1, 2, 3}
	for round := 0; round < 2; round++ { // the second round reuses the reset buffer
		for i := range vals {
			ib.Put(&vals[i])
		}
		if got := ib.Size(); got != 3 {
			t.Fatalf("Size = %d, want 3", got)
		}
		for i := range vals {
			if got := ib.Take(); got != &vals[i] {
				t.Fatalf("round %d: Take %d returned %v, want element %d", round, i, got, i)
			}
		}
		if ib.Take() != nil || ib.Size() != 0 {
			t.Fatalf("round %d: inbox not empty after draining it", round)
		}
	}
}

// TestRegistryCloseRace races Admit against Close: every admitted job is
// finished by Drain's return, and nothing is admitted after Close.
func TestRegistryCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		var r Registry
		var admitted, finished atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if !r.Admit() {
						return
					}
					admitted.Add(1)
					go func() {
						finished.Add(1)
						r.Finish()
					}()
				}
			}()
		}
		if !r.Close() {
			t.Fatal("first Close did not flip")
		}
		if r.Close() || !r.Closing() {
			t.Fatal("second Close flipped, or Closing is false")
		}
		r.Drain()
		// Admissions that raced Close either happened before the flip —
		// and Drain waited for them — or failed, so the admitters stop.
		wg.Wait()
		r.Drain()
		if a, f := admitted.Load(), finished.Load(); a != f {
			t.Fatalf("round %d: Drain returned with %d of %d admitted jobs finished", round, f, a)
		}
		if r.Admit() {
			t.Fatalf("round %d: Admit succeeded after Close", round)
		}
	}
}

// TestParkerNoLostWake parks every worker, then publishes one item and
// wakes: either the producer sees the idle workers or a parker's final
// scan sees the item, so each item is taken within the deadline.
func TestParkerNoLostWake(t *testing.T) {
	const workers, rounds = 3, 200
	var p Parker
	var ib Inbox[int]
	var taken atomic.Int64
	sched := func() bool {
		if ib.Take() == nil {
			return false
		}
		taken.Add(1)
		return true
	}
	scan := func() bool { return ib.Size() > 0 }
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(sched, scan)
		}()
	}
	item := 0
	for i := 0; i < rounds; i++ {
		if i%2 == 0 { // every other round waits until the whole pool sleeps
			waitFor(t, func() bool { return p.Idle() == workers }, "all workers parked")
		}
		ib.Put(&item)
		p.Wake()
		waitFor(t, func() bool { return taken.Load() == int64(i+1) }, "item taken")
	}
	p.Stop()
	wg.Wait()
	if !p.Stopped() || p.Idle() != 0 {
		t.Fatalf("after Stop: Stopped %v, Idle %d", p.Stopped(), p.Idle())
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

func TestBackoffCounts(t *testing.T) {
	for _, misses := range []int{0, spinRounds - 1, spinRounds} {
		if got := Backoff(misses); got != misses+1 {
			t.Fatalf("Backoff(%d) = %d, want %d", misses, got, misses+1)
		}
	}
}
