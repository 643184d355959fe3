package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xkaapi/internal/chaos"
	"xkaapi/internal/pool"
	"xkaapi/internal/xrand"
)

// Config parameterizes a Runtime. The zero value gives the paper's defaults
// as they land on Go: one worker goroutine per P — the unit that plays the
// paper's core; no worker is locked to an OS thread (worker.go says why) —
// and steal-request aggregation enabled.
type Config struct {
	// Workers is the number of scheduling threads. Zero or negative selects
	// runtime.GOMAXPROCS(0), the Go analogue of one thread per core.
	Workers int
	// NoAggregation disables steal-request aggregation; each thief then
	// locks the victim's deque itself (ablation of §II-C).
	NoAggregation bool
	// Chaos installs a fault injector: task-body panics, steal-probe
	// misses, worker stalls and inbox delivery delays are then drawn from
	// its seeded decision streams. nil (the default) disables injection
	// entirely — every site is a single nil check.
	// Shards of one Fleet share one injector.
	Chaos *chaos.Injector
}

// Runtime is one scheduler shard: a worker pool, its MPSC inbox and its
// counters. Clients reach it through a Fleet (fleet.go) of one or more
// shards; NewRuntime builds a bare shard, which is what this package's
// tests drive. Submit work with Submit (any number of concurrent jobs, from
// any goroutines) or the blocking RunRoot wrapper, and release the workers
// with Close. All jobs multiplex over the same workers: independent roots
// flow through one MPSC inbox and are scheduled side by side by work
// stealing.
type Runtime struct {
	cfg     Config
	workers []*Worker
	chaos   *chaos.Injector // cfg.Chaos, denormalized for the per-site nil checks

	// inbox, jobs and park are the idle path this runtime shares with
	// cilk and tbbsched (internal/pool): the root inbox, job admission,
	// and the parker (idle count, wakes, the stop release).
	inbox pool.Inbox[Task]

	extSpawned atomic.Int64 // roots injected by Submit (external spawn count)
	liveRoots  atomic.Int64 // accepted roots not yet finished (router load input)
	stolenIn   atomic.Int64 // roots pulled from sibling shards' inboxes (fleet.go)
	stolenOut  atomic.Int64 // roots of this shard claimed by sibling shards

	// Fleet identity, wired by NewFleet before the workers start and never
	// written again: nil/0 for a bare NewRuntime shard.
	fleet      *Fleet
	shardIndex int

	jobs pool.Registry

	failMu       sync.Mutex
	failedJobs   int     // jobs that finished with a non-nil error
	firstErr     error   // error of the first such job
	drainErrs    []error // failures not yet reported by a Wait drain (capped)
	drainDropped int     // failures elided once drainErrs hit maxDrainErrs

	// park sits away from inbox and jobs, which every submission writes:
	// every spawn reads its idle count.
	park pool.Parker
	// workEpoch is the shard's work-presence epoch (epoch.go): bumped —
	// only while idle > 0, so the busy-pool spawn path never pays it —
	// whenever work is published (deque push, inbox enqueue, adaptive
	// install), compared by idle-adjacent workers against the epoch of
	// their last empty steal sweep to skip provably futile probe loops.
	workEpoch atomic.Uint64

	wg sync.WaitGroup
}

// defaultSeed is the base of the per-worker victim-selection RNG streams.
// Worker j of fleet shard i has the global index g = i·ShardSize + j and
// seeds its stream with defaultSeed + g·seedStep + 1 (workerRand), so every
// (shard, worker) pair of a fleet draws its own stream; a bare NewRuntime
// is shard 0, whose streams are those of a one-shard pool. seedStep is the
// 64-bit golden-ratio constant.
const (
	defaultSeed = 0x853C49E6748FEA9B
	seedStep    = 0x9E3779B97F4A7C15
)

// workerRand is the victim-selection stream of the worker with global
// index g.
func workerRand(g int) xrand.Rand {
	return xrand.New(defaultSeed + uint64(g)*seedStep + 1)
}

// NewRuntime creates the worker pool: cfg.Workers goroutines are started
// (and park when idle); work reaches them through Submit or RunRoot.
func NewRuntime(cfg Config) *Runtime {
	rt := newRuntime(cfg, nil, 0)
	rt.start()
	return rt
}

// newRuntime is the construction half of NewRuntime plus the fleet wiring:
// it builds the pool but does not start the workers, so a Fleet can
// construct every shard — and publish them all in its shards slice — before
// any worker runs. Shard identity must be set here, and the caller must not
// start the workers earlier, because a fleet worker may take the
// cross-shard steal path (which reads the sibling slice) on its very first
// scheduling round.
func newRuntime(cfg Config, fleet *Fleet, shard int) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rt := &Runtime{cfg: cfg, chaos: cfg.Chaos, fleet: fleet, shardIndex: shard}
	rt.workers = make([]*Worker, cfg.Workers)
	for i := range rt.workers {
		w := &Worker{
			id:         i,
			rt:         rt,
			rng:        workerRand(shard*cfg.Workers + i),
			reqScratch: make([]int, 0, cfg.Workers),
			reqs:       make([]request, cfg.Workers),
		}
		w.deque.init()
		rt.workers[i] = w
	}
	return rt
}

// start launches the worker goroutines. Called exactly once, after every
// structure a worker may touch — including fleet siblings — is in place.
func (rt *Runtime) start() {
	for i := range rt.workers {
		rt.wg.Add(1)
		go rt.workers[i].run()
	}
}

// RunRoot executes fn as a root task on the pool and returns once fn and
// every task transitively spawned from it have completed, reporting the
// job's error (nil on success; see Job.Wait for the failure modes). It is
// Submit followed by Job.Wait; unlike the original single-region design,
// multiple RunRoot calls from different goroutines proceed concurrently
// over the same workers.
func (rt *Runtime) RunRoot(fn func(*Worker)) error {
	return rt.Submit(fn).Wait()
}

// Close drains every in-flight job, then stops and joins all workers. It is
// safe to call more than once; work submitted after Close is rejected with
// a pre-failed Job (Err == ErrClosed). Admission and the closing flip are
// one pool.Registry (internal/pool has the argument), so a Submit either
// lands before the drain (and is executed) or is rejected; it can never
// slip a job past the drain into a dead pool.
//
// The refusal half is rt.jobs.Close, which reports whether this call did
// the flip; Fleet.Close calls it on every shard before any shard starts
// draining.
func (rt *Runtime) Close() {
	if rt.jobs.Close() {
		rt.finishClose()
	}
}

// finishClose is the drain half of Close: wait for the registered jobs to
// complete, then stop and join the workers. Safe to call concurrently or
// repeatedly once closing is set (Stop is idempotent, wg.Wait just waits).
func (rt *Runtime) finishClose() {
	rt.jobs.Drain()
	rt.park.Stop()
	rt.wg.Wait()
}

// CloseErr is Close with a failure summary: it drains every in-flight job,
// joins the workers, and reports whether any job submitted over the
// runtime's lifetime failed — nil if all succeeded, otherwise an error
// counting the failures and wrapping the first one (so errors.Is/As reach
// the original *PanicError or cancellation cause).
func (rt *Runtime) CloseErr() error {
	rt.Close()
	n, err := rt.failCount()
	if n == 0 {
		return nil
	}
	return fmt.Errorf("core: %d job(s) failed; first: %w", n, err)
}

// failCount returns the lifetime failed-job count and the first failure,
// for CloseErr and its fleet-level aggregation.
func (rt *Runtime) failCount() (int, error) {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failedJobs, rt.firstErr
}

// maxDrainErrs bounds the failures buffered between Wait drains, so a
// long-running service that rarely calls Wait cannot accumulate errors
// without bound; failures beyond the cap are counted and summarized.
const maxDrainErrs = 16

// noteFailed records a job failure for CloseErr and for the next Wait
// drain. Called once per failed job as it finishes.
func (rt *Runtime) noteFailed(err error) {
	rt.failMu.Lock()
	if rt.failedJobs == 0 {
		rt.firstErr = err
	}
	rt.failedJobs++
	if len(rt.drainErrs) < maxDrainErrs {
		rt.drainErrs = append(rt.drainErrs, err)
	} else {
		rt.drainDropped++
	}
	rt.failMu.Unlock()
}

// NumWorkers returns the size of the worker pool.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

// shardStats is this shard's entry of Fleet.ShardStats.
func (rt *Runtime) shardStats() ShardStats {
	return ShardStats{
		Shard:     rt.shardIndex,
		Workers:   len(rt.workers),
		InboxLen:  rt.inbox.Size(),
		LiveRoots: rt.liveRoots.Load(),
		StolenIn:  rt.stolenIn.Load(),
		StolenOut: rt.stolenOut.Load(),
		Sched:     rt.Stats(),
	}
}

// load is the router's placement metric: roots accepted and not yet
// finished, plus the inbox backlog. A root still queued in the inbox is
// counted by both terms, deliberately — a shard that cannot even start its
// roots is worse off than one merely running them, so backlog weighs
// double in the least-loaded scan.
func (rt *Runtime) load() int64 {
	return rt.liveRoots.Load() + rt.inbox.Size()
}

// Stats sums the per-worker counters plus the externally submitted root
// count. All counters are per-worker padded atomics, so Stats may be read
// at any time; while jobs are in flight the result is a consistent lower
// bound (each counter is monotone, but the sum is not taken at a single
// instant, and a busy worker may hold up to statFlushEvery
// spawned/executed increments in its batch cache). Invariants such as
// Spawned == Executed + Cancelled hold exactly once the runtime is
// quiescent: every path into idleness — park, failed steal round, wait
// loops, root completion, worker exit — publishes the cache first.
func (rt *Runtime) Stats() Stats {
	s := Stats{Spawned: rt.extSpawned.Load()}
	for _, w := range rt.workers {
		s.Add(w.stats.snapshot())
	}
	return s
}

// maybeWake signals one parked worker if any worker is idle, after a push
// the caller already made visible (internal/pool has the park/wake
// argument). The idle test is the whole cost on a busy pool.
func (rt *Runtime) maybeWake() {
	if !rt.park.HasIdle() {
		return
	}
	rt.bumpWorkEpoch()
	rt.park.Wake()
}

// wakeAll releases every parked worker, used when an adaptive section opens
// and work can be created on demand for any number of thieves.
func (rt *Runtime) wakeAll() {
	if !rt.park.HasIdle() {
		return
	}
	rt.bumpWorkEpoch()
	rt.park.WakeAll(len(rt.workers))
}

// anyWork reports whether any worker has queued tasks or an adaptive
// section a thief could split, or a submitted root is waiting in the inbox.
func (rt *Runtime) anyWork() bool {
	if rt.inbox.Size() > 0 {
		return true
	}
	for _, v := range rt.workers {
		if v.stealable() {
			return true
		}
	}
	return false
}
