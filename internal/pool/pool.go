package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Inbox is the MPSC root queue of a pool: any goroutine may Put, any worker
// may Take. The zero value is an empty inbox.
type Inbox[T any] struct {
	mu   sync.Mutex
	q    []*T
	head int
	n    atomic.Int64
}

// Put appends t.
func (ib *Inbox[T]) Put(t *T) {
	ib.mu.Lock()
	ib.q = append(ib.q, t)
	ib.n.Add(1)
	ib.mu.Unlock()
}

// Take removes the oldest queued element, or returns nil. The head index
// makes each take O(1); the buffer resets when it drains.
func (ib *Inbox[T]) Take() *T {
	if ib.n.Load() == 0 {
		return nil
	}
	ib.mu.Lock()
	var t *T
	if ib.head < len(ib.q) {
		t = ib.q[ib.head]
		ib.q[ib.head] = nil
		ib.head++
		if ib.head == len(ib.q) {
			ib.q = ib.q[:0]
			ib.head = 0
		}
		ib.n.Add(-1)
	}
	ib.mu.Unlock()
	return t
}

// Size is the current number of queued elements (racy, for probes and
// stats).
func (ib *Inbox[T]) Size() int64 { return ib.n.Load() }

// Registry is a pool's job admission: the closing flag and the live-job
// count under one mutex. The zero value is open and empty.
type Registry struct {
	mu      sync.Mutex
	drained sync.Cond // L is mu, set by the first Drain
	live    int       // admitted jobs not yet finished
	closing bool      // Close ran: Admit refuses
}

// Admit registers one job and reports true, or reports false if the pool
// is closing. A job admitted here must be finished with Finish.
func (r *Registry) Admit() bool {
	r.mu.Lock()
	ok := !r.closing
	if ok {
		r.live++
	}
	r.mu.Unlock()
	return ok
}

// Finish retires one admitted job and releases the drainers once none is
// left.
func (r *Registry) Finish() {
	r.mu.Lock()
	r.live--
	if r.live == 0 {
		r.drained.Broadcast()
	}
	r.mu.Unlock()
}

// Drain blocks until every admitted job has finished.
func (r *Registry) Drain() {
	r.mu.Lock()
	r.drained.L = &r.mu
	for r.live > 0 {
		r.drained.Wait()
	}
	r.mu.Unlock()
}

// Close makes every later Admit refuse, and reports whether this call did
// the flip (false: the pool was already closing).
func (r *Registry) Close() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return false
	}
	r.closing = true
	return true
}

// Closing reports whether Close has run.
func (r *Registry) Closing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closing
}

// Parker is where a pool's out-of-work workers sleep. The zero value has no
// sleeper and is not stopped.
type Parker struct {
	idle        atomic.Int32 // workers inside Park
	stop        atomic.Bool  // Stop ran: Park returns at once, for good
	mu          sync.Mutex
	wake        sync.Cond // L is mu, set by the first sleeper
	wakePending int       // wakes handed out and not yet taken (guarded by mu)
}

// HasIdle reports whether some worker is parked or parking: the producer's
// test after it published work.
func (p *Parker) HasIdle() bool { return p.idle.Load() != 0 }

// Idle is the number of workers parked or parking.
func (p *Parker) Idle() int { return int(p.idle.Load()) }

// Stopped reports whether Stop has run.
func (p *Parker) Stopped() bool { return p.stop.Load() }

// Wake releases one sleeper if some worker is idle and not already owed a
// wake. Call it after publishing work.
func (p *Parker) Wake() {
	if !p.HasIdle() {
		return
	}
	p.mu.Lock()
	if p.wakePending < p.Idle() {
		p.wakePending++
		p.wake.Signal()
	}
	p.mu.Unlock()
}

// WakeAll releases every sleeper of a pool of n workers, for work that any
// number of thieves can take.
func (p *Parker) WakeAll(n int) {
	p.mu.Lock()
	p.wakePending = n
	p.wake.Broadcast()
	p.mu.Unlock()
}

// Park sleeps until a wake or Stop, unless scan — the caller's final scan
// for work, run after the worker counts as idle — finds work first.
func (p *Parker) Park(scan func() bool) {
	p.idle.Add(1)
	if scan() || p.stop.Load() {
		p.idle.Add(-1)
		return
	}
	p.mu.Lock()
	p.wake.L = &p.mu
	for p.wakePending == 0 && !p.stop.Load() {
		p.wake.Wait()
	}
	if p.wakePending > 0 {
		p.wakePending--
	}
	p.mu.Unlock()
	p.idle.Add(-1)
}

// Stop releases every sleeper for good: Park returns at once from now on.
// Call it once the pool's jobs have drained.
func (p *Parker) Stop() {
	p.stop.Store(true)
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
}

// RoundsBeforePark is how many failed scheduling rounds a worker spins
// through, with a Gosched after each, before it parks.
const RoundsBeforePark = 4

// Run is the top-level loop of a worker whose scheduling round is sched
// (which reports whether it ran a task) and whose final work scan is scan:
// it schedules, spins RoundsBeforePark rounds when out of work, parks, and
// returns once Stop has run.
func (p *Parker) Run(sched, scan func() bool) {
	fails := 0
	for !p.stop.Load() {
		if sched() {
			fails = 0
			continue
		}
		if fails++; fails < RoundsBeforePark {
			runtime.Gosched()
			continue
		}
		p.Park(scan)
		fails = 0
	}
}

const (
	spinRounds = 128
	missSleep  = 20 * time.Microsecond
)

// Backoff is one miss of a wait loop: misses is the count of consecutive
// misses before this one. It yields while the count stays under
// spinRounds, then sleeps missSleep, and returns the new count.
func Backoff(misses int) int {
	misses++
	if misses < spinRounds {
		runtime.Gosched()
	} else {
		time.Sleep(missSleep)
	}
	return misses
}
