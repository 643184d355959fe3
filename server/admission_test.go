package server

import (
	"context"
	"testing"
	"time"
)

// TestAdmitQueueDropsAbandonedWaiters: a request whose context dies while
// it is queued leaves the queue, so the queue stays bounded by its depth
// however many clients give up behind a held slot, and the next release
// finds no dead entries to walk.
func TestAdmitQueueDropsAbandonedWaiters(t *testing.T) {
	q := newAdmitQueue(1, 4)
	if code, _, _ := q.acquire(context.Background()); code != admitOK {
		t.Fatalf("first acquire = %v, want admitOK", code)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10_000; i++ {
		if code, _, queued := q.acquire(dead); code != admitDisconnect || !queued {
			t.Fatalf("acquire %d on a cancelled context = %v (queued %v), want a queued admitDisconnect", i, code, queued)
		}
	}
	q.mu.Lock()
	n := len(q.waiters)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("after 10000 abandoned waits the queue holds %d waiters, want 0 (bound %d)", n, q.maxQueue)
	}
	q.release()
	if q.inFlight() != 0 {
		t.Fatalf("in flight after release = %d, want 0: the slot went to an abandoned waiter", q.inFlight())
	}
}

// TestRetryAfterAfterIdle: a window that ends in an idle stretch says
// nothing about how fast the server drains. 400 grants, ten idle minutes
// (the window back-dated rather than slept through), then a burst whose
// first grant rotates the window: with 16 waiters queued behind it the
// backoff must be the 1 s default, not 17 over 400 grants per ten minutes.
func TestRetryAfterAfterIdle(t *testing.T) {
	q := newAdmitQueue(1, 16)
	for i := 0; i < 400; i++ {
		if code, _, _ := q.acquire(context.Background()); code != admitOK {
			t.Fatalf("acquire %d = %v, want admitOK", i, code)
		}
		q.release()
	}
	q.mu.Lock()
	q.winStart = q.winStart.Add(-10 * time.Minute)
	q.mu.Unlock()
	if code, _, _ := q.acquire(context.Background()); code != admitOK {
		t.Fatalf("first acquire of the burst = %v, want admitOK", code)
	}
	q.mu.Lock()
	for i := 0; i < 16; i++ {
		q.waiters = append(q.waiters, &waiter{grant: make(chan admitCode, 1)})
	}
	q.mu.Unlock()
	if got := q.retryAfterSecs(); got != 1 {
		t.Fatalf("retryAfterSecs after an idle window with 16 queued = %d, want 1", got)
	}
}
