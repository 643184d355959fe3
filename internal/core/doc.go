// Package core implements the X-Kaapi runtime: a work-stealing scheduler for
// multicore machines that unifies three parallel paradigms — fork-join tasks,
// dataflow tasks with access-mode dependency analysis, and adaptive parallel
// loops — exactly as described in "X-Kaapi: a Multi Paradigm Runtime for
// Multicore Architectures" (Gautier, Lementec, Faucher, Raffin; P2S2/ICPP
// 2013).
//
// The pieces, and where the paper describes them:
//
//   - Worker / Runtime (worker.go, runtime.go): one worker per core — on
//     Go, one plain goroutine per P; see "What a worker is on Go" below —
//     each owning a lock-free Chase–Lev deque (deque.go) in the role the paper
//     assigns to Cilk's T.H.E. protocol (§II-C): the owner pushes and pops
//     at the bottom without synchronization beyond Go's (sequentially
//     consistent) atomics, thieves CAS-claim the top, and the single
//     contended case — one task left, owner and thief racing — is decided
//     by the same head CAS for both sides, so no path through the deque
//     ever blocks. Idle workers become thieves.
//   - Steal-request aggregation (request.go): N pending requests to the same
//     victim are served by a single elected thief, the combiner (§II-C).
//     The combiner election lock orders thieves per victim; the deque
//     underneath stays lock-free, so the victim never waits for a combiner.
//   - Dataflow tasks (task.go, handle.go): tasks declare accesses to shared
//     Handles with a mode (read, write, exclusive, cumulative write); the
//     runtime computes true dependencies and releases successors as their
//     inputs are produced (§II-B). Ready tasks released by a completing task
//     land on the completer's own deque — the "ready list" optimization of
//     §II-C made the default.
//   - Adaptive tasks (adaptive.go, loop.go): a running task publishes a
//     splitter that thieves invoke to divide its remaining work on demand;
//     the runtime guarantees a single concurrent splitter per victim (§II-D).
//     ForEach builds the kaapic_foreach parallel loop on top (§II-E).
//   - Concurrent submission (job.go): any goroutine outside the pool may
//     call Runtime.Submit to inject an independent root job; the pool
//     multiplexes all live jobs over the same workers. This extends the
//     paper's single-parallel-region model to a shared service pool.
//   - Failure and cancellation (job.go + internal/jobfail): jobs are the
//     failure domain — panics are captured per job, jobs can be cancelled,
//     and the pool survives both. The state machine itself (first-error-
//     wins, sealing, per-job context fan-out, pre-failed ErrClosed jobs)
//     is not defined here: it is the shared jobfail.State, the single
//     definition the cilk, tbbsched, gomp and quark engines embed too.
//
// # Submit/Wait lifecycle and external-submission rules
//
// Runtime.Submit(fn) enqueues fn as a root task on an MPSC inbox and
// returns a *Job immediately; workers claim inbox roots when they run out
// of local and stolen work, so external threads never touch the owner-only
// ends of the Chase–Lev deques. Job.Wait blocks until the root and every task
// transitively spawned from it completed, and returns the job's error;
// Runtime.Wait drains all jobs submitted so far; Runtime.Close drains
// in-flight jobs before joining the workers (CloseErr additionally reports
// whether any job ever failed). RunRoot is Submit followed by Job.Wait, so
// legacy callers keep their blocking semantics while new callers share the
// pool concurrently.
//
// The rules for code outside the pool: Submit, Job.Wait, Runtime.Wait and
// Close may be called from any non-worker goroutine, concurrently. A task
// body may fire-and-forget Submit (the new job is an unrelated root, not a
// child of the submitter), but must never block in Job.Wait, Runtime.Wait
// or Close — a blocked body stalls its worker and can deadlock the pool;
// use Spawn + Sync for work the task depends on. Worker methods (Spawn,
// SpawnTask, Sync, ForEach) remain callable only from the task body's own
// Worker.
//
// # Error and cancellation contract
//
// Every task carries a pointer to its job, inherited at spawn; the job is
// the failure domain. When any task body of a job panics — a fork-join
// child, a dataflow task, a ForEach chunk (wherever it executes), or an
// adaptive splitter running on a thief — the worker recovers the panic
// into a *PanicError (value + stack of the panic site) and records it on
// the job; the first failure wins. A failed job's remaining tasks are
// cancelled: execute skips their bodies but still performs completion —
// frame counters drain, dataflow successors are released (and in turn
// skipped), Handle frontiers mark the task done — so the task tree always
// drains, Wait always returns, and the handles remain usable by later
// jobs. Cancellation of already-running bodies is cooperative, with two
// instruments: Worker.Context returns the per-job context — derived from
// the SubmitCtx context (Background for Submit), carrying its deadline and
// values, cancelled with the failure as cause the instant the job fails
// from any source — so bodies doing I/O or long kernels select on
// Context().Done() and unblock without reaching a scheduling point; and
// Worker.JobFailed remains the cheaper flag-poll for tight loops. ForEach
// checks the failure at every grain extraction and unwinds the enclosing
// body (so code after a failed loop never runs on partial results).
//
// Jobs can be abandoned from outside: SubmitCtx ties a job to a context
// (cancellation fails the job with ctx.Err()), Job.Cancel fails it with
// ErrCanceled. Submit after Close returns a pre-failed job with ErrClosed
// instead of panicking, so services can race submission against shutdown
// without a recover. Once a job has failed, further Spawn/SpawnTask calls
// from its tasks cancel eagerly: the child is counted but never allocated,
// enqueued or registered on handles, so a deep tree that fails early stops
// generating deque traffic at the source (execution-time skipping remains
// the backstop for tasks enqueued before the failure). The Stats counters
// Panicked and Cancelled account for recovered panics and skipped tasks:
// when a pool drains, Spawned == Executed + Cancelled.
//
// # Per-job attribution and drain errors
//
// Beyond the pool-global Stats, each Job carries its own outcome counters
// (Job.Stats: Executed, Cancelled, Panicked), attributed at execution
// time, which gives a service per-request accounting over a shared pool.
// Runtime.Wait drains all submitted jobs and returns an errors.Join of the
// failures recorded since the previous drain (bounded; floods are
// summarized by count), so batch clients need not track every Job handle.
// All scheduler counters are per-worker padded atomics, so Stats may be
// polled while jobs are in flight: a monitoring endpoint sees Executed and
// Cancelled advance live, and the quiescent invariants hold exactly once
// the pool drains.
//
// # The spawn fast path
//
// The per-task overhead target is the paper's: spawning and executing a
// fork-join task should cost tens of nanoseconds, so a body a few hundred
// instructions long still parallelizes profitably. Four mechanisms carry
// the steady-state spawn/execute cycle without a single heap allocation
// and with almost no shared-memory RMWs:
//
//   - Slab-recycled descriptors (slab.go): a spawn takes its Task from the
//     worker-local free list (two plain loads) and completion returns it
//     there; the list is replenished a 64-descriptor slab at a time, so
//     the allocator is consulted once per slab, not once per task. Every
//     recycle advances the descriptor's generation stamp, which is what
//     keeps the reuse safe against stale dataflow references (a Handle
//     frontier naming a recycled task sees a sequence mismatch and treats
//     the dependency as satisfied). Descriptors are padded to two cache
//     lines so adjacent slab elements never false-share their frame
//     counters; free lists are capped so post-burst hoards stay
//     collectable. Root descriptors, allocated outside the pool, recycle
//     through a sync.Pool instead: a fire-and-forget Submit allocates
//     exactly one object, the Job handle itself.
//   - Batched counters (stats.go): Spawned/Executed bookkeeping increments
//     a worker-private cache and publishes to the padded shared atomics
//     once per batch or idle transition, turning a LOCK-prefixed RMW per
//     task into a plain increment. The same cache carries the per-job
//     Executed attribution keyed by the job pointer, so Job.Stats costs
//     nothing on the hot path and reads as a monotone lower bound that
//     becomes exact at quiescence (see Job.Stats).
//   - The deque fast slot (deque.go): a single-task spawn-then-sync cycle
//     serves from a dedicated slot beside the Chase–Lev buffer, avoiding
//     the buffer indexing and bounds machinery for the dominant
//     depth-first case while preserving the owner-LIFO/thief-FIFO order.
//   - The work-presence epoch (epoch.go): a worker whose full steal sweep
//     found every victim empty skips further sweeps until the shard's
//     epoch — bumped by work publication toward an idle pool — moves, so
//     a parked-adjacent worker stops paying 2N probes per spin round for
//     a fact it already knows. Stats.EpochSkips counts the skips.
//
// # What a worker is on Go
//
// The paper's §II pool is one thread per core. Go offers no core affinity:
// the unit it schedules onto cores is the P, and GOMAXPROCS already gives
// one worker per P. A worker is therefore a plain goroutine and is not
// locked to an OS thread. The lock would bind the goroutine to an M the
// kernel still places freely, and turn every park, Gosched, wake
// and GC stop-the-world into a futex hand-off between threads; 64 pools of
// 4 workers made the process create over a hundred threads
// (TestWorkersHoldNoThreads in the root package holds the count at zero).
// The lock was measured on the benchmark of record before it was removed;
// ROADMAP.md has the table. The comparator schedulers (cilk, tbbsched,
// gomp) use the same worker model, so the Fig. 1 table compares schedulers
// and not thread hand-offs.
//
// # Fleets
//
// On many-core machines a single Runtime is one contention domain: every
// external submit crosses one inbox, and every idle worker probes the same
// set of victims. Fleet (fleet.go) is the pool: N >= 1 Runtime shards, each
// a full scheduler of ShardSize workers, behind a load-aware router. There
// is no second shape — the default pool is a fleet of one shard, for which
// the router returns that shard, cross-shard stealing is off, no health
// supervisor runs and no worker writes the progress epoch — so everything
// above Fleet is shard-agnostic, and NewRuntime remains as what a shard is
// and what this package's tests drive directly.
//
// Placement: each submission goes to the least-loaded shard, where load is
// live root jobs plus queued inbox depth (queued roots count in both
// terms, biasing the router away from backlog). SubmitAffinity(key) pins
// the job to shard key mod N instead, so related jobs share one shard's
// caches; the pin is placement-only. Ties spread via a rotating scan
// origin.
//
// Rebalancing: an idle shard's workers, having exhausted their own deque,
// their shard's steal sweep and their shard's inbox, pull the oldest
// queued root from a loaded sibling's inbox (stealRoot) — the same
// cooperative stealing the in-shard scheduler runs, lifted one level.
// A stolen job stays registered with its home shard (Wait, errors and
// drain are untouched); only execution migrates, root and transitively
// spawned subtree together. Consequently the per-shard Spawned ==
// Executed + Cancelled balance does not hold under migration — it holds
// fleet-wide (Fleet.Stats), and ShardStats exposes StolenIn/StolenOut so
// monitoring can see the migration itself.
//
// Drain: Fleet.Close first flips every shard's closing flag — each under
// the shard's own jobsMu, the exact critical section its Submit admission
// checks — before any shard waits for its drain, so a submit racing the
// fleet-wide close is either drained (wherever it was routed) or rejected
// with ErrClosed; no shard accepts work after a sibling started draining.
//
// The model is fully strict: every task waits (by scheduling other work, not
// by blocking the thread) for its children before completing, so a program
// that is never stolen from executes in sequential order, which preserves the
// sequential semantics the paper inherits from Athapascan. Independent jobs
// are unordered with respect to each other.
//
// This package is the engine behind the public xkaapi API at the module root
// as well as the QUARK compatibility layer in package quark.
package core
