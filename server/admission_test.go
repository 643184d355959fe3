package server

import (
	"context"
	"testing"
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
