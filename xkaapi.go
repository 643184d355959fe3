// Package xkaapi is a Go implementation of the X-Kaapi runtime described in
// "X-Kaapi: a Multi Paradigm Runtime for Multicore Architectures" (Gautier,
// Lementec, Faucher, Raffin; P2S2 workshop, ICPP 2013). It unifies three
// parallel paradigms over one low-overhead work-stealing scheduler:
//
//   - fork-join tasks: Proc.Spawn / Proc.Sync, Cilk-style;
//   - dataflow tasks: Proc.SpawnTask with Read/Write/ReadWrite/CumulWrite
//     accesses to shared Handles; the runtime computes true dependencies and
//     schedules tasks as their inputs are produced;
//   - adaptive parallel loops: Foreach, which creates work on demand as
//     cores become idle instead of a task per chunk.
//
// # Quick start
//
//	rt := xkaapi.New()
//	defer rt.Close()
//	rt.Run(func(p *xkaapi.Proc) {
//	    var a, b int
//	    p.Spawn(func(p *xkaapi.Proc) { a = work1(p) })
//	    b = work2()
//	    p.Sync()
//	    fmt.Println(a + b)
//	})
//
// # Concurrent job submission
//
// One Runtime serves any number of clients: every goroutine may Submit
// independent root jobs (or call Run, which is Submit plus Job.Wait) and
// all of them multiplex over the same worker pool — there is no need for a
// runtime per client.
//
//	rt := xkaapi.New()
//	defer rt.Close() // drains in-flight jobs
//	jobs := make([]*xkaapi.Job, 0, 100)
//	for i := 0; i < 100; i++ {
//	    jobs = append(jobs, rt.Submit(func(p *xkaapi.Proc) { serve(p) }))
//	}
//	for _, j := range jobs {
//	    j.Wait()
//	}
//
// Submit and the Wait family must be called from outside the pool: a task
// body that blocks in Wait stalls its worker (inside the pool, use Spawn
// and Sync instead).
//
// # Errors and cancellation
//
// Jobs are failure-aware. A panic anywhere in a job's task tree — a
// fork-join child, a dataflow task, an adaptive-loop chunk, even a splitter
// — is captured by the runtime instead of killing the process: the job
// fails with a *PanicError holding the panic value and the stack of the
// panic site (first panic wins), and the job's remaining tasks are
// cancelled (their bodies are skipped while the bookkeeping still drains,
// so the job always completes and dataflow state stays consistent). The
// error comes back from Run and Job.Wait:
//
//	if err := rt.Run(riskyRoot); err != nil {
//	    var pe *xkaapi.PanicError
//	    if errors.As(err, &pe) {
//	        log.Printf("job panicked: %v\n%s", pe.Value, pe.Stack)
//	    }
//	}
//
// Jobs can also be abandoned: SubmitCtx binds a job to a context
// (cancellation fails the job with the context's error and stops scheduling
// its tasks), Job.Cancel does the same with ErrCanceled. Submitting to a
// closed runtime no longer panics: it returns a pre-failed Job whose Wait
// reports ErrClosed. CloseErr is Close plus a summary error if any job
// failed over the runtime's lifetime.
//
// This whole protocol — panic capture, first-error-wins, cancellation
// fan-out, pre-failed jobs, the Spawned == Executed + Cancelled drain
// invariant — is one state machine, defined once in internal/jobfail and
// embedded by every scheduler in this module: the X-Kaapi runtime here and
// the cilk, tbbsched, gomp and quark comparator packages. The comparators
// differ from X-Kaapi in scheduling cost on purpose; they never differ in
// failure semantics.
//
// # Deadline-aware task bodies
//
// Cancellation is cooperative for bodies already running, and every task
// body can see it coming: Proc.Context returns a per-job context, derived
// from the SubmitCtx submission context (Background for Submit), that is
// cancelled — with the failure as cause — the instant the job fails for
// any reason: a sibling's panic, Job.Cancel, or the submission context's
// deadline or disconnect. Long kernels select on it, and context-aware
// I/O can take it directly:
//
//	rt.SubmitCtx(ctx, func(p *xkaapi.Proc) {
//	    for _, block := range blocks {
//	        if p.Context().Err() != nil {
//	            return // job failed or deadline hit: stop early
//	        }
//	        process(block)
//	    }
//	})
//
// Proc.JobFailed remains as the cheaper flag-poll for tight loops that
// cannot afford a context check per iteration.
//
// # Serving jobs over HTTP
//
// Package xkaapi/server wraps a Runtime in a network front-end: each HTTP
// request becomes one SubmitCtx job bound to the request context, with
// per-request deadlines, 429 backpressure from a bounded in-flight budget,
// per-job stats in every response (Job.Stats), and graceful drain — see
// that package and cmd/xkserve for the serving story, and quickstart §6
// for an in-process example.
//
// # Scaling out with shards
//
// On many-core machines one global pool can become a single contention
// domain. WithShards splits the runtime into N scheduler shards behind a
// load-aware router: every Submit lands on the least-loaded shard,
// SubmitAffinity pins related jobs to one shard for cache locality, and an
// idle shard's workers steal queued root jobs from loaded siblings so no
// shard backlogs while another sleeps. The submission API is identical — a
// Runtime is always a fleet of shards, one by default — and ShardStats
// exposes the per-shard breakdown:
//
//	rt := xkaapi.New(xkaapi.WithShards(4))
//	defer rt.Close()
//	rt.SubmitAffinity(ctx, clientID, handle)
//	for _, ss := range rt.ShardStats() {
//	    log.Printf("shard %d: executed=%d stolen_in=%d", ss.Shard, ss.Sched.Executed, ss.StolenIn)
//	}
//
// The semantics are sequential (as in Athapascan): a program whose tasks are
// never stolen executes in program order, and dataflow dependencies make any
// parallel execution equivalent to that order. Independent jobs are
// unordered with respect to each other.
//
// Tasks are created non-blockingly and cost a few tens of nanoseconds; the
// scheduler follows the work-first principle, pays for parallelism only when
// idle cores actually ask for work (steal-request aggregation, adaptive
// splitting), and keeps task objects on per-worker free lists.
//
// # What a worker is on Go
//
// The paper's pool is one thread per core. Here a worker is a plain
// goroutine and the default pool has one per P (GOMAXPROCS), the unit Go
// schedules onto cores. Workers are not locked to OS threads: Go exposes no
// core affinity, so the lock would bind a goroutine to a thread the kernel
// still places freely and charge a futex hand-off to every park, Gosched,
// wake and GC stop-the-world. Measured on the benchmark of record at P = 2
// over ten alternating pairs, fib_forkjoin latency_ms_p50 was 23.7 ms with
// the lock and 19.3 ms without it.
package xkaapi

import (
	"context"
	"runtime"
	"time"

	"xkaapi/internal/chaos"
	"xkaapi/internal/core"
)

// ErrClosed is returned (via Job.Err / Job.Wait) for jobs submitted after
// Close: the runtime rejects them with a pre-failed Job instead of
// panicking.
var ErrClosed = core.ErrClosed

// ErrCanceled is the failure of a job abandoned with Job.Cancel. Jobs
// cancelled through a context fail with the context's own error instead.
var ErrCanceled = core.ErrCanceled

// PanicError is the error a job fails with when one of its task bodies
// panics; it carries the panic value and the stack captured at the panic
// site, and unwraps to the value when the body panicked with an error.
// It is an alias of the module's one shared definition (internal/jobfail),
// so a PanicError from cilk, tbbsched, gomp or quark is the same type.
type (
	PanicError = core.PanicError
)

// Proc is the execution context handed to every task body: spawning,
// syncing and parallel loops are methods on it. See the methods of the
// underlying scheduler worker: Spawn, SpawnTask, Sync, ForEach, Context,
// ID, NumWorkers.
type Proc = core.Worker

// Handle identifies a shared memory region for dataflow synchronization.
// The zero value is ready to use; a Handle must not be copied after use.
type Handle = core.Handle

// Access pairs a Handle with an access Mode; build them with Read, Write,
// ReadWrite and CumulWrite.
type Access = core.Access

// Mode is a dataflow access mode.
type Mode = core.Mode

// Access modes (§II-B of the paper).
const (
	ModeRead       = core.ModeRead
	ModeWrite      = core.ModeWrite
	ModeReadWrite  = core.ModeReadWrite
	ModeCumulWrite = core.ModeCumulWrite
)

// Stats aggregates scheduler event counters; see Runtime.Stats.
type Stats = core.Stats

// LoopOpts tunes Foreach grains and slicing; the zero value selects the
// kaapic_foreach defaults.
type LoopOpts = core.LoopOpts

// Adaptive lets a task publish a splitter so thieves can divide its
// remaining work on demand; see Proc.SetAdaptive and the paper's §II-D.
type Adaptive = core.Adaptive

// Task is an opaque scheduled task; splitters return tasks built with
// Proc.NewAdaptiveTask.
type Task = core.Task

// Interval is a concurrently divisible iteration range used by adaptive
// tasks.
type Interval = core.Interval

// Read declares that the task reads the region behind h.
func Read(h *Handle) Access { return Access{Handle: h, Mode: core.ModeRead} }

// Write declares that the task overwrites the region behind h, producing a
// new version.
func Write(h *Handle) Access { return Access{Handle: h, Mode: core.ModeWrite} }

// ReadWrite declares an exclusive in-place update of the region behind h.
func ReadWrite(h *Handle) Access { return Access{Handle: h, Mode: core.ModeReadWrite} }

// CumulWrite declares a cumulative (commutative and associative) update;
// concurrent CumulWrite tasks on the same handle may run in parallel, so the
// body must make its update thread-safe (e.g. per-worker accumulators or an
// atomic add).
func CumulWrite(h *Handle) Access { return Access{Handle: h, Mode: core.ModeCumulWrite} }

// Option configures New.
type Option func(*config)

// config is the pool New builds: the fleet shape with the per-shard
// scheduler Config in it. WithWorkers lands in Runtime.Workers as the total
// worker count; New splits it across the shards.
type config = core.FleetConfig

// WithWorkers sets the number of workers (goroutines; see the package
// comment); the default is runtime.GOMAXPROCS(0), one per P. With
// WithShards(s) the workers are spread across the shards, ⌈n/s⌉ each.
func WithWorkers(n int) Option { return func(c *config) { c.Runtime.Workers = n } }

// WithoutAggregation disables steal-request aggregation (one combiner
// answering all concurrent thieves); each thief then steals for itself.
// It is the paper's §II-C ablation, driven by
// BenchmarkAblationAggregationOff.
func WithoutAggregation() Option { return func(c *config) { c.Runtime.NoAggregation = true } }

// WithSeed sets the base seed of the victim-selection RNGs, for reproducible
// schedules in tests.
func WithSeed(seed uint64) Option { return func(c *config) { c.Runtime.Seed = seed } }

// WithShards splits the pool into n runtime shards behind a load-aware
// router: each submitted job is placed on the least-loaded shard (or the
// shard its affinity key pins, see Runtime.SubmitAffinity), and idle
// shards' workers pull queued roots from loaded siblings. The default, and
// any n <= 1, is one shard; a shard needs a worker, so n is clamped to the
// worker count.
func WithShards(n int) Option { return func(c *config) { c.Shards = n } }

// WithShardHealth sets how long a shard may sit on a nonempty inbox without
// advancing its progress epoch before the router diverts around it; zero
// keeps the 400ms default. A one-shard runtime has no sibling to divert to
// and runs no supervisor. Shorter values trade divert latency against false
// trips on shards that are merely saturated — a tripped shard recovers on
// its next progress flush, so false trips cost routing quality, not
// correctness.
func WithShardHealth(stallAfter time.Duration) Option {
	return func(c *config) { c.Health.StallAfter = stallAfter }
}

// ChaosScenario configures deterministic fault injection: seeded
// probabilities for task-body panics, adaptive-loop chunk panics, forced
// steal misses, worker stalls, delayed root delivery and a whole-shard
// wedge window. See NewChaosInjector and WithChaos.
type ChaosScenario = chaos.Scenario

// ChaosPulse is a probabilistic delay (probability + duration) used by the
// stall and delay sites of a ChaosScenario.
type ChaosPulse = chaos.Pulse

// ChaosWedge freezes every worker of one shard for a wall-clock window.
type ChaosWedge = chaos.WedgeSpec

// ChaosInjector evaluates a ChaosScenario; build one with NewChaosInjector
// or ParseChaos and install it with WithChaos. Safe for concurrent use and
// shareable across the shards of one pool (the counters then aggregate).
type ChaosInjector = chaos.Injector

// NewChaosInjector builds a fault injector for sc. Every decision is drawn
// from seeded hash streams, so a failing run reproduces from its seed.
func NewChaosInjector(sc ChaosScenario) *ChaosInjector { return chaos.New(sc) }

// ParseChaos builds an injector from a scenario spec like "panic+stall:42"
// (fragments: panic, steal, stall, inbox, latency, wedge, all; the number
// after ':' is the seed). Empty spec or "off" yields (nil, nil): disabled.
func ParseChaos(spec string) (*ChaosInjector, error) { return chaos.Parse(spec) }

// WithChaos compiles the fault injector into the pool: the scheduler draws
// injected panics, stalls, steal misses and delivery delays from it. nil is
// the default and costs a single nil check per injection site — runtimes
// built without WithChaos pay nothing.
func WithChaos(in *ChaosInjector) Option { return func(c *config) { c.Runtime.Chaos = in } }

// Runtime owns a pool of workers, one per P by default: a fleet of
// scheduler shards behind a load-aware router — one shard unless WithShards
// asks for more, and a one-shard fleet pays nothing for the router. It is
// created idle; Submit injects a root job and returns its handle
// immediately, Run submits and waits. Any number of goroutines may submit
// concurrently: all jobs share the one pool. Close drains in-flight jobs
// and releases the workers.
type Runtime struct {
	rt *core.Fleet
}

// ShardStats is one shard's monitoring entry: placement and migration
// counters plus the shard's scheduler Stats. See Runtime.ShardStats.
type ShardStats = core.ShardStats

// Job is the completion handle of one submitted root job. Wait returns the
// job's error (nil, *PanicError, a context error, ErrCanceled or
// ErrClosed), Err peeks without blocking, Cancel abandons the job's
// not-yet-started tasks, Context returns the per-job context task bodies
// see through Proc.Context, Stats returns the job's own task outcome
// counters. See Runtime.Submit and Runtime.SubmitCtx.
type Job = core.Job

// JobStats is the per-job attribution of the scheduler's task outcome
// counters (Executed, Cancelled, Panicked), for per-request or per-client
// accounting in services that multiplex many jobs over one pool.
//
// Mid-flight snapshots are approximate by design: Executed is batched
// through per-worker caches (the spawn fast path pays a plain increment,
// not a shared RMW per task), so while the job runs each counter is a
// monotone non-decreasing lower bound — it never overshoots and never goes
// backwards, it may just trail the truth by one batch per worker. Once the
// job's tree has drained and the workers touch an idle transition, the
// counts are exact; Cancelled and Panicked are always exact. See Job.Stats.
type JobStats = core.JobStats

// New creates a runtime with the given options. The n workers asked for
// (GOMAXPROCS by default) are spread over s = min(shards, n) shards of ⌈n/s⌉
// workers each: shards stay equal-sized, so Workers() is never below n and
// at most s − 1 above it.
func New(opts ...Option) *Runtime {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.Runtime.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	cfg.Shards = min(max(cfg.Shards, 1), n)
	cfg.ShardSize = (n + cfg.Shards - 1) / cfg.Shards
	return &Runtime{rt: core.NewFleet(cfg)}
}

// Close drains every in-flight job, then stops and joins the workers.
// Submitting after Close yields a pre-failed Job with ErrClosed.
func (r *Runtime) Close() { r.rt.Close() }

// CloseErr is Close plus a failure summary: nil if every job submitted over
// the runtime's lifetime succeeded, otherwise an error counting the failed
// jobs and wrapping the first failure.
func (r *Runtime) CloseErr() error { return r.rt.CloseErr() }

// Workers returns the number of workers across all shards.
func (r *Runtime) Workers() int { return r.rt.NumWorkers() }

// Run executes root as an independent root job on the pool and returns once
// every transitively spawned task completed, reporting the job's error (nil
// on success, *PanicError if a task body panicked). It is Submit followed
// by Job.Wait; concurrent Runs from different goroutines share the pool.
func (r *Runtime) Run(root func(*Proc)) error { return r.rt.RunRoot(root) }

// RunCtx is Run bound to a context: if ctx is cancelled before the job
// completes, the job's remaining tasks are skipped and RunCtx returns
// ctx.Err().
func (r *Runtime) RunCtx(ctx context.Context, root func(*Proc)) error {
	return r.rt.SubmitCtx(ctx, root).Wait()
}

// Submit enqueues root as an independent job and returns its handle without
// waiting. Safe to call from any goroutine outside the pool, concurrently
// with other Submits, Runs and in-flight jobs.
func (r *Runtime) Submit(root func(*Proc)) *Job { return r.rt.Submit(root) }

// SubmitCtx is Submit bound to a context: cancelling ctx before the job
// completes fails the job with ctx.Err() and stops scheduling its tasks.
func (r *Runtime) SubmitCtx(ctx context.Context, root func(*Proc)) *Job {
	return r.rt.SubmitCtx(ctx, root)
}

// SubmitAffinity is SubmitCtx with a placement hint for sharded runtimes:
// jobs submitted with the same key are routed to the same shard, so related
// jobs (one client's requests, one dataset's queries) share that shard's
// caches. The pin is on placement only — cross-shard stealing still
// rebalances a backlogged shard. With one shard every key lands on it and
// SubmitAffinity is exactly SubmitCtx.
func (r *Runtime) SubmitAffinity(ctx context.Context, key uint64, root func(*Proc)) *Job {
	return r.rt.SubmitAffinity(ctx, key, root)
}

// Wait blocks until every job submitted so far has completed and returns
// the aggregated outcome of the drain: nil if nothing failed since the last
// Wait, otherwise an errors.Join of the failures recorded since then (a
// bounded number of individual errors is retained; floods are summarized by
// count). Batch clients can therefore submit many jobs and check one error;
// individual Job handles still observe their own failures.
func (r *Runtime) Wait() error { return r.rt.Wait() }

// Stats returns the summed scheduler counters. All counters are per-worker
// atomics, so Stats may be read while jobs are in flight (each counter is a
// live, monotone lower bound); invariants such as Spawned == Executed +
// Cancelled hold exactly only once the pool is quiescent.
func (r *Runtime) Stats() Stats { return r.rt.Stats() }

// Shards returns the number of scheduler shards: 1 by default, the
// WithShards count (clamped to the worker count) otherwise.
func (r *Runtime) Shards() int { return r.rt.Shards() }

// ShardStats returns one monitoring entry per shard, in shard order: the
// shard's queue depths (InboxLen, LiveRoots), its cross-shard migration
// counters (StolenIn, StolenOut) and its scheduler Stats. Note that
// migrated jobs are counted where they ran, so Spawned == Executed +
// Cancelled balances fleet-wide (Runtime.Stats), not per shard.
func (r *Runtime) ShardStats() []ShardStats { return r.rt.ShardStats() }

// String describes the pool shape: shards, workers, cross-shard stealing.
func (r *Runtime) String() string { return r.rt.String() }

// ResetStats zeroes the scheduler counters; call it between Runs.
func (r *Runtime) ResetStats() { r.rt.ResetStats() }

// Foreach runs body over [lo, hi) in parallel on r and returns when every
// index has been processed (or the loop failed: a panicking body aborts the
// loop and is reported as a *PanicError). It is shorthand for Run +
// Proc.ForEach with default grains.
func (r *Runtime) Foreach(lo, hi int, body func(p *Proc, lo, hi int)) error {
	return r.Run(func(p *Proc) { Foreach(p, lo, hi, body) })
}

// Foreach applies body to sub-ranges of [lo, hi) from within a running task,
// using the adaptive loop of the paper (§II-E): the range is pre-partitioned
// into one reserved slice per worker and further divided on demand when
// thieves ask for work.
func Foreach(p *Proc, lo, hi int, body func(p *Proc, lo, hi int)) {
	ForeachOpts(p, lo, hi, LoopOpts{}, body)
}

// ForeachGrain is Foreach with an explicit sequential grain: the executing
// worker claims chunks of exactly grain iterations (except the last).
func ForeachGrain(p *Proc, lo, hi, grain int, body func(p *Proc, lo, hi int)) {
	ForeachOpts(p, lo, hi, LoopOpts{SeqGrain: int64(grain)}, body)
}

// ForeachOpts is Foreach with full control over grains and slicing.
func ForeachOpts(p *Proc, lo, hi int, opt LoopOpts, body func(p *Proc, lo, hi int)) {
	p.ForEach(int64(lo), int64(hi), opt, func(w *Proc, l, h int64) {
		body(w, int(l), int(h))
	})
}
