package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi/internal/xrand"
)

// claimTracker asserts every task out of a deque is delivered exactly once,
// whichever side (owner pop or thief CAS-steal) obtained it.
type claimTracker struct {
	t        *testing.T
	index    map[*Task]int
	claimed  []atomic.Int32
	nClaimed atomic.Int64

	// The owner's view of progress, for waiting: the claim count it last
	// saw and when that count last moved.
	lastN    int64
	lastMove time.Time
}

// claimStall bounds how long the claim count may stand still while the
// owner waits for the last claims. A lost task is never claimed, so an
// unbounded wait would spin until the test binary's timeout.
const claimStall = 5 * time.Second

func newClaimTracker(t *testing.T, tasks []Task) *claimTracker {
	ct := &claimTracker{
		t:       t,
		index:   make(map[*Task]int, len(tasks)),
		claimed: make([]atomic.Int32, len(tasks)),
	}
	for i := range tasks {
		ct.index[&tasks[i]] = i
	}
	return ct
}

func (ct *claimTracker) claim(task *Task, who string) {
	i, ok := ct.index[task]
	if !ok {
		ct.t.Errorf("%s claimed unknown task %p", who, task)
		return
	}
	if n := ct.claimed[i].Add(1); n != 1 {
		ct.t.Errorf("task %d claimed %d times (last by %s)", i, n, who)
	}
	ct.nClaimed.Add(1)
}

// waiting is the owner's bounded wait for the last claims: it reports
// whether fewer than total tasks are claimed yet. Once the count has not
// moved for claimStall, it fails the test with the claimed and expected
// counts and reports false, so the caller stops its thieves and returns
// instead of hanging. Owner goroutine only.
func (ct *claimTracker) waiting(total int) bool {
	n := ct.nClaimed.Load()
	if n >= int64(total) {
		return false
	}
	now := time.Now()
	if n != ct.lastN || ct.lastMove.IsZero() {
		ct.lastN, ct.lastMove = n, now
		return true
	}
	if now.Sub(ct.lastMove) > claimStall {
		ct.t.Errorf("claimed %d tasks, want %d: no claim for %v, a task is lost", n, total, claimStall)
		return false
	}
	return true
}

func (ct *claimTracker) verify(total int) {
	if got := ct.nClaimed.Load(); got != int64(total) {
		ct.t.Fatalf("claimed %d tasks, want %d", got, total)
	}
	for i := range ct.claimed {
		if n := ct.claimed[i].Load(); n != 1 {
			ct.t.Errorf("task %d claimed %d times", i, n)
		}
	}
}

// TestDequeOwnerThiefInterleaving is a randomized torture test of the
// Chase–Lev protocol: one owner goroutine pushes and pops at the bottom
// while several thieves hammer the CAS steal at the top, with random
// interleavings. Every task must be claimed exactly once — the owner/thief
// race on the last remaining task (decided by the head CAS, with no lock
// anywhere) must never duplicate or lose a task. The submission inbox leans
// on exactly these edge cases: a worker that claims an inbox root
// immediately pushes the root's children onto its deque while freshly woken
// thieves attack the same deque.
func TestDequeOwnerThiefInterleaving(t *testing.T) {
	for _, thieves := range []int{1, 3, 8} {
		thieves := thieves
		t.Run(fmt.Sprintf("thieves=%d", thieves), func(t *testing.T) {
			total := 10_000
			if testing.Short() {
				total = 2_000
			}

			var d deque
			d.init()
			tasks := make([]Task, total)
			ct := newClaimTracker(t, tasks)

			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := xrand.New(uint64(id)*0x9E3779B97F4A7C15 + 1)
					for !stop.Load() {
						if task := d.steal(); task != nil {
							ct.claim(task, "thief")
						}
						if rng.Intn(8) == 0 {
							runtime.Gosched()
						}
					}
				}(th)
			}

			// Owner: push tasks in random bursts, pop in random bursts, so
			// the bottom keeps crossing the top (the single-task CAS race)
			// and the buffer repeatedly empties and refills.
			rng := xrand.New(0xDECAFBAD)
			next := 0
			for next < total || ct.waiting(total) {
				for burst := rng.Intn(4) + 1; burst > 0 && next < total; burst-- {
					d.push(&tasks[next])
					next++
				}
				for burst := rng.Intn(3); burst > 0; burst-- {
					if task := d.pop(); task != nil {
						ct.claim(task, "owner")
					}
				}
				if next == total {
					// Everything pushed: drain the rest against the thieves.
					if task := d.pop(); task != nil {
						ct.claim(task, "owner")
					} else if ct.nClaimed.Load() < int64(total) {
						runtime.Gosched()
					}
				}
				if rng.Intn(16) == 0 {
					runtime.Gosched()
				}
			}
			stop.Store(true)
			wg.Wait()

			ct.verify(total)
			if sz := d.size(); sz != 0 {
				t.Fatalf("deque not empty at end: size=%d", sz)
			}
		})
	}
}

// TestDequeOwnerPopVsStealLastTask isolates the one contended transition of
// the protocol: a single task in the deque with the owner popping and
// thieves stealing simultaneously. Exactly one side must win each round —
// a double delivery means the head CAS is not the unique arbiter, a lost
// round means a claim evaporated.
func TestDequeOwnerPopVsStealLastTask(t *testing.T) {
	rounds := 20_000
	if testing.Short() {
		rounds = 4_000
	}
	const thieves = 2

	var d deque
	d.init()
	tasks := make([]Task, rounds)
	ct := newClaimTracker(t, tasks)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if task := d.steal(); task != nil {
					ct.claim(task, "thief")
				}
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		d.push(&tasks[i])
		// Owner races the thieves for the single queued task. If the pop
		// loses, the winning thief has it; either way round i is claimed
		// exactly once, which verify() checks at the end.
		if task := d.pop(); task != nil {
			ct.claim(task, "owner")
		}
	}
	// Wait until the thieves have banked every round they won.
	for ct.waiting(rounds) {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	ct.verify(rounds)
}

// TestDequeStealVsGrow interleaves thief CAS-steals with owner pushes that
// repeatedly outgrow the buffer, exercising the lock-free growth path: a
// thief may read an index from the old buffer and CAS against head after
// the owner has already published the doubled copy. No task may be lost or
// duplicated across the buffer generations.
func TestDequeStealVsGrow(t *testing.T) {
	total := dequeInitCap * 64 // forces several doublings while thieves run
	if testing.Short() {
		total = dequeInitCap * 16
	}
	const thieves = 3

	var d deque
	d.init()
	tasks := make([]Task, total)
	ct := newClaimTracker(t, tasks)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New(uint64(id)*0xA24BAED4963EE407 + 1)
			for !stop.Load() {
				if task := d.steal(); task != nil {
					ct.claim(task, "thief")
				}
				if rng.Intn(32) == 0 {
					runtime.Gosched()
				}
			}
		}(th)
	}

	// Owner: push everything without popping, so tail outruns head and the
	// buffer must double whenever the thieves fall behind; pop the leftovers
	// at the end against the still-running thieves. The grow check happens
	// here, before the drain: once the owner pops the deque empty, the
	// quiescence shrink resets the buffer to its initial size by design.
	for i := 0; i < total; i++ {
		d.push(&tasks[i])
	}
	grewTo := d.buf.Load().mask + 1
	for {
		if task := d.pop(); task != nil {
			ct.claim(task, "owner")
			continue
		}
		if !ct.waiting(total) {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	ct.verify(total)
	if grewTo < int64(dequeInitCap*2) {
		t.Fatalf("buffer never grew: cap=%d (the test must exercise grow)", grewTo)
	}
	if buf := d.buf.Load(); buf.mask+1 != int64(dequeInitCap) {
		t.Fatalf("buffer not shrunk after the owner drained it: cap=%d", buf.mask+1)
	}
}

// TestDequeMultiThiefStress is a randomized stress of the full protocol
// under the race detector: many thieves with random backoff against an
// owner doing random push/pop/grow bursts, across several seeds. Asserts
// the exactly-once delivery invariant the scheduler depends on (a lost
// task hangs a job; a duplicated task double-executes and corrupts frames).
func TestDequeMultiThiefStress(t *testing.T) {
	seeds := []uint64{1, 0xBADC0FFEE, 0x5EED5EED5EED}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			total := 30_000
			thieves := 4
			if testing.Short() {
				total = 5_000
			}

			var d deque
			d.init()
			tasks := make([]Task, total)
			ct := newClaimTracker(t, tasks)

			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := xrand.New(seed ^ (uint64(id+1) * 0x9E3779B97F4A7C15))
					for !stop.Load() {
						if task := d.steal(); task != nil {
							ct.claim(task, "thief")
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
					}
				}(th)
			}

			rng := xrand.New(seed)
			next := 0
			for next < total || ct.waiting(total) {
				switch rng.Intn(4) {
				case 0: // large burst: pressure the grow path
					for burst := rng.Intn(200) + 1; burst > 0 && next < total; burst-- {
						d.push(&tasks[next])
						next++
					}
				case 1: // small burst
					for burst := rng.Intn(4) + 1; burst > 0 && next < total; burst-- {
						d.push(&tasks[next])
						next++
					}
				case 2: // pop burst: drive the bottom back into the top
					for burst := rng.Intn(8); burst > 0; burst-- {
						if task := d.pop(); task != nil {
							ct.claim(task, "owner")
						}
					}
				default:
					runtime.Gosched()
				}
				if next == total {
					if task := d.pop(); task != nil {
						ct.claim(task, "owner")
					} else if ct.nClaimed.Load() < int64(total) {
						runtime.Gosched()
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			ct.verify(total)
		})
	}
}
