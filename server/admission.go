package server

import (
	"context"
	"math"
	"slices"
	"sync"
	"time"
)

// admitCode is the outcome of one admission attempt.
type admitCode int

const (
	// admitOK: a budget slot was granted; the caller must release() it.
	admitOK admitCode = iota
	// admitDraining: the server is draining; refuse with 503.
	admitDraining
	// admitQueueFull: budget and queue both exhausted; refuse with 429.
	admitQueueFull
	// admitDeadline: the request deadline expired while queued; 504.
	admitDeadline
	// admitDisconnect: the request context was cancelled (client gone or
	// handler chain torn down) while queued; 499.
	admitDisconnect
)

// waiter is one request parked in the admission queue. All fields are
// guarded by the owning admitQueue's mutex except grant, which is a
// buffered channel written exactly once, under that mutex, when the
// waiter's outcome is decided.
type waiter struct {
	grant   chan admitCode // buffered(1): decided outcome
	decided bool           // an outcome was sent on grant
	code    admitCode      // the outcome sent (valid when decided)
}

// admitQueue is the server's admission control: a fixed budget of in-flight
// slots fronted by a bounded FIFO queue. A request that misses a free slot
// waits in the queue under its own context; release hands the freed slot
// directly to the oldest live waiter (FIFO, no thundering herd), and only a
// full queue is refused outright.
//
// Every transition — grant, refusal, drain, abandon — happens under one
// mutex, which is what closes the historical StartDrain/admit race: a
// request could previously pass the atomic draining check and then win a
// budget slot after drain had begun. Here startDrain flips the flag and
// flushes the queue in the same critical section grants use, so once
// startDrain returns, no acquire can ever return admitOK again.
type admitQueue struct {
	mu       sync.Mutex
	free     int // unheld budget slots
	budget   int
	maxQueue int       // bound on queued waiters; 0 disables queueing
	waiters  []*waiter // undecided waiters, oldest first; len <= maxQueue
	draining bool

	// Grant-rate window, for the Retry-After a 429 advertises: grants
	// counts slots handed out (fast path and queue handoff alike) since
	// winStart, the last at lastAt past it; when a window of grantWindow
	// completes, its rate is rolled into lastRate. The rate is how fast
	// the queue actually drains, so ceil(queue/rate) is an honest
	// time-to-a-free-slot estimate instead of the old hardcoded 1.
	grants   int
	winStart time.Time
	lastAt   time.Duration
	lastRate float64 // grants per second over the last completed window
}

const (
	// grantWindow is the rotation period of the grant-rate window: long
	// enough to smooth scheduling noise, short enough that Retry-After
	// tracks a changing drain rate within seconds.
	grantWindow = time.Second
	// maxRetryAfterSecs bounds the advertised backoff: however slow the
	// drain, a client is never told to stay away longer than this.
	maxRetryAfterSecs = 30
)

func newAdmitQueue(budget, maxQueue int) *admitQueue {
	return &admitQueue{free: budget, budget: budget, maxQueue: maxQueue}
}

// noteGrantLocked records one slot grant in the rate window, rotating the
// window when it is full. A window opens at its first grant, and its rate
// covers only the time in which its grants happened: from that grant to
// its last. A window whose last grant is a whole window old ends in an
// idle stretch and carries no rate, so a burst after a quiet spell is not
// told that the server drains a few grants a minute. Caller holds q.mu.
func (q *admitQueue) noteGrantLocked() {
	e := time.Since(q.winStart)
	if q.grants == 0 || e >= grantWindow {
		q.lastRate = 0
		if q.grants > 1 && e-q.lastAt < grantWindow {
			q.lastRate = float64(q.grants-1) / q.lastAt.Seconds()
		}
		q.grants = 0
		q.winStart = time.Now()
		e = 0
	}
	q.grants++
	q.lastAt = e
}

// retryAfterSecs derives the Retry-After a 429 should advertise from the
// observed grant rate: the seconds until the current backlog (every queued
// waiter, plus the retrying request itself) drains at that rate, rounded
// up and clamped to [1, maxRetryAfterSecs]. With no observed rate (a
// stampede onto a cold or long-idle server) it falls back to 1 second, the
// old hardcoded value.
func (q *admitQueue) retryAfterSecs() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	rate := q.lastRate
	// Blend in the live window once it has signal, so a drain-rate collapse
	// is reflected before the window rotates.
	if e := time.Since(q.winStart); q.grants > 0 && e > grantWindow/4 {
		if cur := float64(q.grants) / e.Seconds(); rate == 0 || cur < rate {
			rate = cur
		}
	}
	if rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(len(q.waiters)+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSecs {
		secs = maxRetryAfterSecs
	}
	return secs
}

// acquire obtains a budget slot for one request, queueing under ctx when
// the budget is busy. It returns the outcome and, for requests that
// queued, the time spent waiting (queued reports whether it waited at
// all, so zero-wait grants and queue-path grants are distinguishable).
func (q *admitQueue) acquire(ctx context.Context) (code admitCode, wait time.Duration, queued bool) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return admitDraining, 0, false
	}
	if q.free > 0 {
		q.free--
		q.noteGrantLocked()
		q.mu.Unlock()
		return admitOK, 0, false
	}
	if len(q.waiters) >= q.maxQueue {
		q.mu.Unlock()
		return admitQueueFull, 0, false
	}
	w := &waiter{grant: make(chan admitCode, 1)}
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()

	start := time.Now()
	select {
	case code = <-w.grant:
		return code, time.Since(start), true
	case <-ctx.Done():
	}
	// The context died while queued — but a grant may have been decided
	// concurrently. Settle under the lock: either take the waiter out of
	// the queue (an undecided waiter is still in it: only a decision
	// removes one) or, if a slot was already handed to it, pass that slot
	// on so it is not leaked.
	q.mu.Lock()
	if w.decided {
		if w.code == admitOK {
			q.releaseLocked()
		}
		q.mu.Unlock()
		// The slot was granted before the caller could observe it; the
		// request still reports its context outcome (it can no longer use
		// the slot — its deadline is gone).
	} else {
		i := slices.Index(q.waiters, w)
		q.waiters = slices.Delete(q.waiters, i, i+1)
		q.mu.Unlock()
	}
	if ctx.Err() == context.DeadlineExceeded {
		return admitDeadline, time.Since(start), true
	}
	return admitDisconnect, time.Since(start), true
}

// release returns one slot: to the oldest live waiter if any (FIFO
// handoff), otherwise back to the free pool.
func (q *admitQueue) release() {
	q.mu.Lock()
	q.releaseLocked()
	q.mu.Unlock()
}

func (q *admitQueue) releaseLocked() {
	if len(q.waiters) == 0 {
		q.free++
		return
	}
	w := q.waiters[0]
	q.waiters[0] = nil
	q.waiters = q.waiters[1:]
	w.decided, w.code = true, admitOK
	q.noteGrantLocked()
	w.grant <- admitOK
}

// startDrain atomically switches to draining and refuses every queued
// waiter. Grants and the draining flag share the mutex, so after
// startDrain returns no acquire — racing or future — can be admitted.
func (q *admitQueue) startDrain() {
	q.mu.Lock()
	q.draining = true
	for _, w := range q.waiters {
		w.decided, w.code = true, admitDraining
		w.grant <- admitDraining
	}
	q.waiters = nil
	q.mu.Unlock()
}

// inFlight is the number of budget slots currently held.
func (q *admitQueue) inFlight() int {
	q.mu.Lock()
	n := q.budget - q.free
	q.mu.Unlock()
	return n
}

// depth is the number of requests currently waiting in the queue.
func (q *admitQueue) depth() int {
	q.mu.Lock()
	n := len(q.waiters)
	q.mu.Unlock()
	return n
}
