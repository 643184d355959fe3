package core

import (
	"runtime"
	"sync/atomic"
)

// Steal-request aggregation (§II-C of the paper, after Hendler et al.'s flat
// combining): instead of each thief attacking the victim's deque itself, a
// thief posts a request in the victim's request box and tries to become the
// combiner by acquiring the victim's combiner lock. The winner — "one of the
// thieves is elected to reply to all requests" — serves every posted request
// in a single pass over the victim's state: tasks are CAS-stolen oldest-first
// from the deque (the Chase–Lev steal in deque.go; the victim's owner path
// never blocks behind the combiner), and any remaining requests are offered
// to the victim's active splitter (adaptive tasks, §II-D), which divides the
// running task's remaining work k+1 ways. Aggregation reduces the number of
// ready-task detections: N concurrent requests cost one deque traversal
// instead of N. The combiner lock serializes thieves per victim; it is an
// election primitive, not a deque lock — the deque itself is lock-free.

const (
	reqEmpty int32 = iota
	reqPosted
	reqReplied
)

// stealSpinLimit bounds how long a thief waits for a reply before
// withdrawing its request and trying another victim.
const stealSpinLimit = 128

// request is one slot of a victim's request box. Slot i belongs to the
// worker with id i, so posting never contends with other thieves. The
// padding keeps distinct thieves' slots on distinct cache lines.
type request struct {
	state atomic.Int32
	task  *Task
	_     [40]byte
}

// stealFrom posts a steal request to victim v and waits for the reply,
// participating in combiner election while it spins. It returns the stolen
// task (possibly nil for an empty reply) and whether a reply was received at
// all; (nil, false) means the request was withdrawn after spinning too long.
func (w *Worker) stealFrom(v *Worker) (*Task, bool) {
	r := &v.reqs[w.id]
	r.task = nil
	r.state.Store(reqPosted)
	w.stats.stealRequests.Add(1)
	for spins := 0; ; spins++ {
		if v.comb.TryLock() {
			w.combineServe(v)
			v.comb.Unlock()
		}
		if r.state.Load() == reqReplied {
			r.state.Store(reqEmpty)
			if r.task != nil {
				w.stats.stealHits.Add(1)
			}
			return r.task, true
		}
		if spins >= stealSpinLimit {
			if r.state.CompareAndSwap(reqPosted, reqEmpty) {
				return nil, false
			}
			// The reply landed in the withdrawal window.
			r.state.Store(reqEmpty)
			if r.task != nil {
				w.stats.stealHits.Add(1)
			}
			return r.task, true
		}
		if spins&15 == 15 {
			runtime.Gosched()
		}
	}
}

// combineServe answers every request currently posted on victim v. The
// caller must hold v.comb, which also enforces the paper's guarantee that at
// most one thief runs v's splitter concurrently with v's task body.
func (w *Worker) combineServe(v *Worker) {
	ids := w.reqScratch[:0]
	for i := range v.reqs {
		if v.reqs[i].state.Load() == reqPosted {
			ids = append(ids, i)
		}
	}
	w.reqScratch = ids[:0]
	if len(ids) == 0 {
		return
	}
	w.stats.combines.Add(1)

	// First source: the victim's deque, oldest tasks first, each taken by a
	// lock-free CAS claim. The victim keeps pushing and popping concurrently;
	// steal returns nil once the deque is drained (or the owner raced us to
	// the last task), and the remaining requests fall through to the splitter.
	served := 0
	for served < len(ids) {
		t := v.deque.steal()
		if t == nil {
			break
		}
		reply(&v.reqs[ids[served]], t)
		served++
	}

	// Second source: the victim's active adaptive task, split k+1 ways for
	// the k remaining requests (one part stays with the victim, §II-E).
	if rest := ids[served:]; len(rest) > 0 {
		if ad := v.adaptive.Load(); ad != nil && ad.splittable() {
			tasks := ad.split(w, len(rest))
			for _, t := range tasks {
				if served >= len(ids) {
					break
				}
				reply(&v.reqs[ids[served]], t)
				served++
			}
		}
	}

	// Empty replies for anyone left, so they move on to another victim.
	for _, i := range ids[served:] {
		reply(&v.reqs[i], nil)
	}
	w.stats.combineServed.Add(int64(served))
}

func reply(r *request, t *Task) {
	r.task = t
	r.state.Store(reqReplied)
}

// stealDirect is the non-aggregated protocol used when Config.NoAggregation
// is set (ablation A1): every thief CAS-steals from the victim's deque for
// itself, so N concurrent thieves cost N top-of-deque claims (and N cache
// line bounces on head) instead of one aggregated pass.
func (w *Worker) stealDirect(v *Worker) *Task {
	w.stats.stealRequests.Add(1)
	t := v.deque.steal()
	if t == nil {
		if ad := v.adaptive.Load(); ad != nil && ad.splittable() {
			v.comb.Lock() // still required: one splitter at a time
			tasks := ad.split(w, 1)
			v.comb.Unlock()
			if len(tasks) > 0 {
				t = tasks[0]
			}
		}
	}
	if t != nil {
		w.stats.stealHits.Add(1)
	}
	return t
}
