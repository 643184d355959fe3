package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xkaapi/internal/chaos"
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
	// Seed is the base seed for per-worker victim-selection RNGs. Zero
	// selects a fixed default, making victim sequences reproducible.
	Seed uint64
	// Chaos installs a fault injector: task-body panics, steal-probe
	// misses, worker stalls, inbox delivery delays and shard wedges are
	// then drawn from its seeded decision streams. nil (the default)
	// disables injection entirely — every site is a single nil check.
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

	inbox      inbox
	extSpawned atomic.Int64 // roots injected by Submit (external spawn count)
	liveRoots  atomic.Int64 // accepted roots not yet finished (router load input)
	stolenIn   atomic.Int64 // roots pulled from sibling shards' inboxes (fleet.go)
	stolenOut  atomic.Int64 // roots of this shard claimed by sibling shards

	// Health supervision state (health.go). progress is the shard's epoch:
	// workers bump it as they publish executed batches, so a fleet
	// supervisor can tell "busy" from "wedged" without touching the task
	// path. unhealthy diverts the router; the flip/divert counters feed
	// ShardStats. All four are written only in a fleet of two or more shards
	// (flushStats gates the progress bump on shardTotal > 1).
	progress     atomic.Int64
	unhealthy    atomic.Bool
	healthFlips  atomic.Int64 // healthy <-> unhealthy transitions
	routedAround atomic.Int64 // placements diverted away while unhealthy

	// Fleet identity, wired by NewFleet before the workers start and never
	// written again: nil/0/0 for a bare NewRuntime shard.
	fleet      *Fleet
	shardIndex int
	shardTotal int

	jobsMu   sync.Mutex
	jobsCond *sync.Cond
	jobsLive int  // submitted jobs whose task trees have not drained
	closing  bool // Close entered: reject new submissions (guarded by jobsMu)

	failMu       sync.Mutex
	failedJobs   int     // jobs that finished with a non-nil error
	firstErr     error   // error of the first such job
	drainErrs    []error // failures not yet reported by a Wait drain (capped)
	drainDropped int     // failures elided once drainErrs hit maxDrainErrs

	idle atomic.Int32
	// workEpoch is the shard's work-presence epoch (epoch.go): bumped —
	// only while idle > 0, so the busy-pool spawn path never pays it —
	// whenever work is published (deque push, inbox enqueue, adaptive
	// install), compared by idle-adjacent workers against the epoch of
	// their last empty steal sweep to skip provably futile probe loops.
	workEpoch   atomic.Uint64
	parkMu      sync.Mutex
	parkCond    *sync.Cond
	wakePending int

	stop atomic.Bool // drain finished: workers may exit
	wg   sync.WaitGroup
}

// defaultSeed is the base of the per-worker victim-selection RNG streams
// when Config.Seed is zero, making default schedules reproducible.
const defaultSeed = 0x853C49E6748FEA9B

// NewRuntime creates the worker pool: cfg.Workers goroutines are started
// (and park when idle); work reaches them through Submit or RunRoot.
func NewRuntime(cfg Config) *Runtime {
	rt := newRuntime(cfg, nil, 0, 0)
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
func newRuntime(cfg Config, fleet *Fleet, shard, shards int) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rt := &Runtime{cfg: cfg, chaos: cfg.Chaos, fleet: fleet, shardIndex: shard, shardTotal: shards}
	rt.parkCond = sync.NewCond(&rt.parkMu)
	rt.jobsCond = sync.NewCond(&rt.jobsMu)
	rt.workers = make([]*Worker, cfg.Workers)
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	for i := range rt.workers {
		w := &Worker{
			id:         i,
			rt:         rt,
			rng:        xrandSeed(seed, i),
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
// a pre-failed Job (Err == ErrClosed). The closing flag flips under jobsMu
// — the same lock Submit registers under — so a Submit either lands before
// the drain (and is executed) or observes closing and is rejected; it can
// never slip a job past the drain into a dead pool.
func (rt *Runtime) Close() {
	if rt.beginClose() {
		rt.finishClose()
	}
}

// beginClose flips the runtime into closing mode under jobsMu and reports
// whether this call did the flip (false: another Close got there first).
// It is the refusal half of Close, split out so Fleet.Close can refuse
// submissions on every shard before any shard starts draining.
func (rt *Runtime) beginClose() bool {
	rt.jobsMu.Lock()
	defer rt.jobsMu.Unlock()
	if rt.closing {
		return false
	}
	rt.closing = true
	return true
}

// finishClose is the drain half of Close: wait for the registered jobs to
// complete, then stop and join the workers. Safe to call concurrently or
// repeatedly once closing is set (stop and the broadcast are idempotent,
// wg.Wait just waits).
func (rt *Runtime) finishClose() {
	rt.jobsMu.Lock()
	for rt.jobsLive > 0 { // drain jobs submitted before the flip
		rt.jobsCond.Wait()
	}
	rt.jobsMu.Unlock()
	rt.stop.Store(true)
	rt.parkMu.Lock()
	rt.wakePending += len(rt.workers)
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
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
		Shard:             rt.shardIndex,
		Workers:           len(rt.workers),
		InboxLen:          rt.inbox.size(),
		LiveRoots:         rt.liveRoots.Load(),
		StolenIn:          rt.stolenIn.Load(),
		StolenOut:         rt.stolenOut.Load(),
		Unhealthy:         rt.unhealthy.Load(),
		HealthTransitions: rt.healthFlips.Load(),
		RoutedAround:      rt.routedAround.Load(),
		Sched:             rt.Stats(),
	}
}

// load is the router's placement metric: roots accepted and not yet
// finished, plus the inbox backlog. A root still queued in the inbox is
// counted by both terms, deliberately — a shard that cannot even start its
// roots is worse off than one merely running them, so backlog weighs
// double in the least-loaded scan.
func (rt *Runtime) load() int64 {
	return rt.liveRoots.Load() + rt.inbox.size()
}

// Stats sums the per-worker counters plus the externally submitted root
// count. All counters are per-worker padded atomics, so Stats may be read
// at any time; while jobs are in flight the result is a consistent lower
// bound (each counter is monotone between resets, but the sum is not taken
// at a single instant, and a busy worker may hold up to statFlushEvery
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

// ResetStats zeroes all per-worker counters and the external root count.
// Call it only while quiescent: resetting under live increments loses no
// memory safety (the counters are atomics) but produces meaningless sums.
// On a quiescent pool it first waits (a bounded spin) for workers still
// winding down to publish their increment caches; once a worker has
// parked its cache is clean, so in practice a reset right after Wait is
// not followed by a stale flush reinflating the zeroed counters. The wait
// is bounded, not a guarantee — a worker descheduled mid-wind-down past
// the bound can still flush late, which is one more reason this API is
// quiescent-only.
func (rt *Runtime) ResetStats() {
	for _, w := range rt.workers {
		for i := 0; w.cache.dirty.Load() && i < 10_000; i++ {
			runtime.Gosched()
		}
	}
	rt.extSpawned.Store(0)
	for _, w := range rt.workers {
		w.stats.reset()
	}
}

// maybeWake signals one parked worker if any worker is idle. The push it
// follows is already visible: both the deque bottom and idle counter are
// sequentially consistent atomics, so either the waker sees idle > 0 or the
// parker's final anyWork scan sees the pushed task.
func (rt *Runtime) maybeWake() {
	if rt.idle.Load() == 0 {
		return
	}
	rt.bumpWorkEpoch()
	rt.parkMu.Lock()
	if rt.wakePending < int(rt.idle.Load()) {
		rt.wakePending++
		rt.parkCond.Signal()
	}
	rt.parkMu.Unlock()
}

// wakeAll releases every parked worker, used when an adaptive section opens
// and work can be created on demand for any number of thieves.
func (rt *Runtime) wakeAll() {
	if rt.idle.Load() == 0 {
		return
	}
	rt.bumpWorkEpoch()
	rt.parkMu.Lock()
	rt.wakePending = len(rt.workers)
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
}

// anyWork reports whether any worker has queued tasks, an open adaptive
// section, or a submitted root is waiting in the inbox.
func (rt *Runtime) anyWork() bool {
	if rt.inbox.size() > 0 {
		return true
	}
	for _, v := range rt.workers {
		if v.deque.size() > 0 || v.adaptive.Load() != nil {
			return true
		}
	}
	return false
}
