// Package pool is the idle path the module's three work-stealing
// schedulers share: the X-Kaapi runtime (internal/core, every fleet shard)
// and the Cilk and TBB comparators (cilk, tbbsched). The paper's Fig. 1
// compares their task-creation costs, so they differ in their deques and
// steal loops and in nothing else: how an external root gets in, how a
// pool admits and drains jobs around Close, and how an out-of-work worker
// sleeps and is woken are written once, here. gomp, whose threads never
// park inside a region, shares the miss backoff. This package is the one
// home of the reasoning below; the schedulers only supply their own work
// scans.
//
// # The root inbox
//
// Inbox is the MPSC queue through which goroutines outside a pool inject
// root tasks. External submitters must not touch the owner end of any
// worker deque, so a new root lands in the inbox and is claimed by
// whichever worker runs out of local and stolen work first. Its count is a
// sequentially consistent atomic, so the empty probe (Size, and the first
// test of Take) costs one load and no lock.
//
// # Admission and drain
//
// Registry holds a pool's closing flag and its live-job count under one
// mutex. Admit is the submission's critical section: it either registers
// the job before Close flips the flag — and the drain then waits for it —
// or observes the flag and refuses, and the caller hands back a job that
// is already failed with jobfail.ErrClosed (jobfail.State.Reject). No job
// can slip past the drain into a pool whose workers have stopped. Close
// only flips the flag, so a fleet can refuse on every shard before any
// shard waits (core.Fleet.Close); Drain waits for the live count to reach
// zero, and is also what a pool-wide Wait is.
//
// # Park and wake
//
// Parker is the sleep of an out-of-work worker. A parking worker first
// advertises itself in the idle count, then runs its scheduler's final
// work scan, and sleeps on the condition variable only if the scan found
// nothing. A producer first publishes its work (a deque push, an inbox
// Put), then reads the idle count. Both the publication and the idle count
// are sequentially consistent atomics (tbbsched's locked deques get the
// same order from the deque mutex its scan also takes), so at least one
// side sees the other: either the producer sees idle > 0 and wakes a
// sleeper, or the parker's scan sees the work and does not sleep. A wake is a credit
// (wakePending) taken under the mutex by exactly one sleeper, and never
// more credits are handed out than workers are idle, so a burst of spawns
// costs one signal per sleeper, not one per spawn. Stop releases every
// sleeper for good once the pool has drained.
//
// The idle test, one atomic load, is the only cost a busy pool's spawn
// path pays: Wake takes the lock and signals only once it has seen an
// idle worker. internal/core makes the test itself (HasIdle, which
// inlines) so it can bump its work-presence epoch (core's epoch.go)
// before it calls Wake.
//
// # The miss backoff
//
// A wait loop that found no work (a worker waiting for its children, a
// thread at a barrier) yields with Gosched for its first spinRounds
// misses and then sleeps missSleep per miss, so a long wait stops
// burning a P. Backoff is that step; every wait loop of the four
// schedulers calls it.
package pool
