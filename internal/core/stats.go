package core

import "sync/atomic"

// statFlushEvery is the batching window of the per-worker increment cache:
// the task-path counters (spawned, executed) are accumulated in plain
// owner-private fields and folded into the published atomics every this
// many increments, as well as at every idle transition (park, failed
// steal round, wait loops), at root-task completion and at worker exit.
// Go has no relaxed atomics, so each published increment is a full
// LOCK-prefixed RMW; batching divides that cost by the window while
// keeping Stats at most one window stale on a busy worker — and exact
// whenever the pool is quiescent, because every path into idleness
// flushes.
const statFlushEvery = 64

// statCache is one worker's pending increments. Only the owning worker
// touches it.
//
// Besides the pool-global counters, the cache also batches the per-job
// Executed attribution (jobfail.Counters), keyed by the job of the task
// the worker is currently executing: jobExecuted increments stay private
// until the worker switches jobs, flushes on a batch boundary, or
// transitions toward idleness, replacing the per-task shared-counter RMW
// of Job.Stats with one amortized add per batch. The job pointer is
// dropped at every flush so a parked worker never retains a finished job.
//
// The trailing pad keeps the cache — hammered by the owner on every task —
// off the cache line of whatever field follows it in Worker. Concretely,
// deque.head lives there: thieves CAS that word, and without the pad every
// steal attempt would bounce the line the owner's counter writes go
// through (the atomicpad fixtures cover this shape; see
// internal/analysis/atomicpad).
type statCache struct {
	spawned  int64
	executed int64
	pending  int64 // increments since the last flush

	job         *Job  // job the jobExecuted batch is attributed to
	jobExecuted int64 // executed tasks of job not yet published to job.counts

	_ [64]byte // pad: owner-hot words share no line with the next field
}

// Stats is a snapshot of the scheduler event counters, summed over workers.
// The counters exist to validate the design experimentally: request
// aggregation should drive Combines well below StealRequests, and adaptive
// loops should keep Splits orders of magnitude below the iteration count
// (§II-C/§II-D of the paper).
type Stats struct {
	Spawned       int64 // tasks created (fork-join + dataflow + loop slices)
	Executed      int64 // task bodies run
	ReadyReleases int64 // dataflow successors released on completion
	StealRequests int64 // requests posted to victims
	StealHits     int64 // requests answered with a task
	StealProbes   int64 // victim inspections by idle thieves (incl. empty probes)
	EpochSkips    int64 // steal sweeps skipped because the work epoch was unchanged
	Combines      int64 // combiner passes (aggregated service of N requests)
	CombineServed int64 // requests answered during combiner passes
	Splits        int64 // splitter invocations on adaptive tasks
	SplitTasks    int64 // tasks produced by splitters
	Parks         int64 // times a worker parked after failing to find work
	Panicked      int64 // task bodies (incl. loop chunks, splitters) that panicked
	Cancelled     int64 // tasks skipped because their job had already failed
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Spawned += other.Spawned
	s.Executed += other.Executed
	s.ReadyReleases += other.ReadyReleases
	s.StealRequests += other.StealRequests
	s.StealHits += other.StealHits
	s.StealProbes += other.StealProbes
	s.EpochSkips += other.EpochSkips
	s.Combines += other.Combines
	s.CombineServed += other.CombineServed
	s.Splits += other.Splits
	s.SplitTasks += other.SplitTasks
	s.Parks += other.Parks
	s.Panicked += other.Panicked
	s.Cancelled += other.Cancelled
}

// workerStats holds one worker's counters. Every counter is an atomic,
// written only by the owning worker (each worker counts against its own
// struct, including a thief counting a steal it performed), so the
// increments are uncontended single-line RMWs and any goroutine may read a
// live snapshot at any time — this is what lets Runtime.Stats publish
// Executed/Cancelled while jobs are in flight. The two task-path counters
// (spawned, executed) are additionally batched through statCache: the
// worker publishes them every statFlushEvery tasks and at every idle
// transition, so a live read sees them advance in small steps rather than
// per task; all other counters (cancelled, panicked, steal/combine/split,
// parks, probes) are bumped directly and stay exactly live. The leading
// and trailing pads keep the counter block on cache lines no neighboring
// field (and no other worker's hot state) shares, so a /stats reader never
// bounces a line the task hot path is writing through false sharing.
type workerStats struct {
	_ [64]byte // pad: counters start on a fresh cache line

	spawned       atomic.Int64
	executed      atomic.Int64
	readyReleases atomic.Int64
	panicked      atomic.Int64
	cancelled     atomic.Int64

	stealRequests atomic.Int64
	stealHits     atomic.Int64
	stealProbes   atomic.Int64
	epochSkips    atomic.Int64
	combines      atomic.Int64
	combineServed atomic.Int64
	splits        atomic.Int64
	splitTasks    atomic.Int64
	parks         atomic.Int64

	_ [64]byte // pad: nothing after the counters shares their last line
}

// snapshot reads all counters. Safe at any time: each counter is atomic
// and monotone, so a live snapshot is a consistent lower bound of each
// counter (the sum across workers is not a single instant, but every
// component only grows).
func (ws *workerStats) snapshot() Stats {
	return Stats{
		Spawned:       ws.spawned.Load(),
		Executed:      ws.executed.Load(),
		ReadyReleases: ws.readyReleases.Load(),
		Panicked:      ws.panicked.Load(),
		Cancelled:     ws.cancelled.Load(),
		StealRequests: ws.stealRequests.Load(),
		StealHits:     ws.stealHits.Load(),
		StealProbes:   ws.stealProbes.Load(),
		EpochSkips:    ws.epochSkips.Load(),
		Combines:      ws.combines.Load(),
		CombineServed: ws.combineServed.Load(),
		Splits:        ws.splits.Load(),
		SplitTasks:    ws.splitTasks.Load(),
		Parks:         ws.parks.Load(),
	}
}
