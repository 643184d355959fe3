// Package server is the X-Kaapi network front-end: an HTTP layer that maps
// requests onto runtime jobs, so the scheduler — not ad-hoc goroutines —
// owns scheduling, failure containment and cancellation for the whole
// request path.
//
// # Request → job mapping
//
// Every workload endpoint handles a request by submitting work through
// Runtime.SubmitCtx, bound to the request's context. The three paradigms
// of the paper are exposed as endpoints over one shared worker pool:
//
//	GET /fib?n=22                      fork-join recursion (Spawn/Sync)
//	GET /loop?n=200000                 adaptive parallel loop (the gomp/komp
//	                                   worksharing kernel on the adaptive
//	                                   foreach scheduler)
//	GET /cholesky?n=192&nb=64&verify=1 tile Cholesky as dataflow tasks
//	GET /healthz                       liveness: 200 "ok", or 503 "draining"
//	GET /stats                         per-endpoint and scheduler counters
//
// A /cholesky reply carries gflops: n³/3 flops over the request's elapsed_ns,
// which spans the source-matrix lookup (a generation, for an order outside
// the eight cached), the copy into tiles, task insertion and the drain (and
// any panic-retry attempts), so it is the rate a client saw, not a kernel rate.
// The kernels are internal/blas's, on an 8×4 micro-kernel: on an amd64
// CPU with FMA assembly with the bits of a fused per-element chain, which
// an 8×8 AVX-512 block over packed B takes over for most of gemm and syrk
// where the CPU has it, with the same bits; elsewhere the portable Go
// kernel. Within one process every request gets the same bits. At the small n and nb of typical requests the copy and the
// per-task scheduling cost hold gflops well below the kernels' own rate.
//
// Because the job carries the request context, both per-request deadlines
// (a timeout=DURATION query parameter, or the server's default) and client
// disconnects cancel the job through the runtime's machinery: remaining
// tasks are skipped eagerly at spawn (or at execution for tasks already
// enqueued), bookkeeping drains, and the pool moves on.
//
// Per-job outcome counters (core.Job.Stats: Executed, Cancelled, Panicked)
// are returned in every response and aggregated per endpoint, giving the
// per-request attribution a multi-tenant service needs on top of the
// pool-global scheduler counters.
//
// # Request pipeline
//
// There is one request path. Each workload endpoint is a row of an
// unexported table (builtinRows), and Server.serve takes every request of
// every row through the same stages, in this order:
//
//  1. parse — the row's parser validates the query (n against the row's
//     cap: /fib 40, /loop 50 000 000, /cholesky 2 048; timeout, and the
//     row's own parameters); anything bad is a 400.
//  2. admit — a budget slot, possibly after a wait in the admission queue
//     (next section); 503 while draining, 429 when the queue is full,
//     504/499 when the request dies while queued. The latency clock of
//     /stats starts here, once, for every row.
//  3. batch or submit — a small request (n below the row's coalesceBelow:
//     /fib n < 18, /loop n < 1 000 000) of a row with a batch kernel joins
//     the coalescing window; every other request is a job of its own: the
//     row's attempt submits it — the fleet router places it on the
//     least-loaded shard — and waits for it. elapsed_ns in the reply spans
//     this stage and the next.
//  4. panic-retry — an attempt (or a whole batch) that fails with a task
//     panic is resubmitted up to Config.PanicRetries times, by one loop
//     that also folds every attempt's task counters into the row.
//  5. finish — the outcome is counted, its latency recorded and mapped to
//     a status (Status taxonomy).
//  6. reply — one builder writes the JSON body for every exit (direct,
//     batched, cancelled); the row's fill adds its own fields and the
//     verified ok.
//
// The three rows:
//
//	row       parse                    attempt                    fill
//	fib       n, timeout               fibTask, one job           result == FibSeq(n)
//	loop      n, timeout               loopKernel, one job        result == n(n-1)/2
//	cholesky  n, nb, verify, timeout   cholesky.SubmitKaapi on a  gflops; residual
//	                                   fresh tile copy            < 1e-10 on verify=1
//
// fib and loop name only their kernel and the size below which a request
// is small: the kernel is what a coalesced batch runs per member, and their
// attempt is the same kernel as a job of its own, so the two paths cannot
// diverge. cholesky has no kernel and is never coalesced.
// /healthz and /stats are not rows and bypass the pipeline. New, Close and
// /stats iterate the table, so a row is all an endpoint is.
//
// # Admission: queue, then batch or submit
//
// Admission is a pipeline, not a gate. The server holds a bounded budget
// of in-flight jobs (Config.Budget, default 2x the worker count) fronted
// by a bounded FIFO admission queue (Config.QueueDepth, default 4x the
// budget):
//
//  1. A request that finds a free budget slot is admitted immediately.
//  2. Otherwise it joins the queue and waits under its own deadline.
//     Slots are handed to waiters strictly FIFO as running requests
//     finish. Time spent queued counts against the request's deadline —
//     queueing narrows, never widens, the time a client was promised.
//  3. Only when the queue itself is full does the server answer
//     429 Too Many Requests with a Retry-After header. Backpressure is
//     still applied at admission, before any work reaches the pool, so an
//     over-capacity burst cannot queue unbounded work — but a burst that
//     fits the queue now completes instead of bouncing.
//
// A request whose deadline fires while queued gets 504; one whose client
// disconnects while queued gets 499, and its queue slot is abandoned (an
// abandoned waiter granted a slot concurrently passes the slot straight
// to the next live waiter — slots never leak). /healthz and /stats bypass
// admission entirely. QueueDepth < 0 disables the queue and restores the
// instant-429 behaviour.
//
// An admitted request is then batched or submitted by its size: only a
// small /fib or /loop request waits for partners (next section); a
// full-size one, and every /cholesky, is submitted at once as one root job.
//
// # Request coalescing
//
// Admitted small /fib and /loop requests pass through a per-endpoint
// batcher: a count-or-timeout collection window (Config.BatchWindow, default
// 500µs; at most 8 requests) folds concurrent small requests into ONE
// runtime job — one SubmitCtx, one fan-out of per-request sub-tasks, one
// set of job counters — instead of N jobs racing for the admission
// budget. Each member still gets its own sub-result over a buffered
// channel, its own verification, and its own response. The batch job runs
// under a context that stays alive while any member's request lives:
// a member whose deadline fires or whose client disconnects is skipped at
// fan-out (or abandoned at the next context check) and answered 504/499,
// while its batch neighbours are unaffected — coalescing never lets one
// request's deadline extend or shorten another's. Batches dispatch
// asynchronously, so collection of the next window never stalls behind
// execution of the previous one. BatchWindow < 0 disables coalescing;
// /cholesky requests are never coalesced (each one is already a full
// dataflow job).
//
// Small is a per-row constant (coalesceBelow in builtinRows: /fib n < 18,
// /loop n < 1 000 000): the size at which the kernel alone takes about a
// third of a millisecond on one worker (BenchmarkKernelCost). Coalescing
// can pay only below it — the scheduler's work-first rule, pay for
// parallelism only when an idle core asks, applied to the front-end. A
// larger request has nothing to amortize, the wait could double its
// latency, and a batch is one root on one shard, so two coalesced 2 ms
// loops would run back to back on one shard while another idles; it skips
// the window and the fleet router places it like a /cholesky job.
//
// The window is longer than it reads: Go's netpoller rounds a timer sleep
// below a millisecond up to about 1 ms when every P is idle, so in a quiet
// process a lone small request waits ≈ 1 ms per window, not 500µs.
//
// # Status taxonomy
//
// Terminal outcomes are attributed precisely, using the request's own
// context to distinguish who cancelled:
//
//	200  completed and verified
//	500  task panic (after Config.PanicRetries resubmissions, if any), or
//	     result failed verification
//	504  the request's deadline fired (queued or running)
//	499  the client disconnected (request context dead; queued or running)
//	503  server-initiated cancellation (Job.Cancel or drain: the job was
//	     cancelled but the request context is still alive), or draining
//	429  admission queue full (Retry-After set)
//
// A server-side cancel is never misreported as a client disconnect: 499
// is reserved for requests whose own context died, and server-initiated
// cancellations are counted separately (server_cancelled in /stats).
//
// The Retry-After on 429s is derived, not hardcoded: the admission queue
// tracks its grant rate over a rotating one-second window, and advertises
// ceil((queued+1)/rate) seconds — how long the current backlog actually
// needs to drain — clamped to [1s, 30s], falling back to 1s before any
// grant has been observed.
//
// # Graceful drain
//
// StartDrain flips the server into draining mode: /healthz turns 503
// (load balancers stop routing), new workload requests are refused with
// 503, queued waiters are refused in the same critical section that stops
// grants — after StartDrain returns, no request can be admitted, with no
// race window — and requests already admitted run to completion. The
// intended shutdown sequence on SIGTERM (see cmd/xkserve serve) is
// StartDrain, then http.Server.Shutdown (waits for in-flight handlers,
// hence for their jobs), then Server.Close (stops the batch collectors),
// then Runtime.Wait — whose errors.Join drain reports every job failure
// unaccounted for by a handler — and finally Runtime.CloseErr. After that
// drain the scheduler counters must balance:
// Spawned == Executed + Cancelled.
//
// # Sharding
//
// The runtime is always a fleet of scheduler shards, one by default.
// Config.Shards > 1 (with Config.Runtime nil; or an externally built
// xkaapi.New(WithShards(n)) runtime) puts several behind the same
// endpoints: each request's job is placed on the least-loaded scheduler
// shard, and idle shards steal queued root jobs from loaded siblings, so
// one heavy endpoint cannot monopolize the pool's locality domain.
//
// On a sharded runtime /stats grows two fields:
//
//	"shards": 4,
//	"shard_stats": [
//	  {"shard": 0, "workers": 2, "inbox_len": 0, "live_roots": 1,
//	   "stolen_in": 3, "stolen_out": 0,
//	   "executed": 1234, "spawned": 1230, "cancelled": 0, "parks": 7},
//	  ...
//	]
//
// stolen_in/stolen_out count root jobs migrated between shards by
// cross-shard stealing; executed counts where tasks actually ran. Because
// migration moves execution but not accounting, spawned == executed +
// cancelled balances only on the fleet-level "scheduler" block, not per
// shard. shard_stats is omitted entirely when shards == 1, so consumers
// of the single-pool schema see an unchanged reply.
//
// # Health and failure containment
//
// Overload has one policy: bounded admission. The budget, the bounded
// queue, the Retry-After on a 429 and each request's own deadline bound
// what an over-capacity burst can cost; nothing is shed by size, and
// /healthz answers 200 "ok" until StartDrain turns it 503 "draining". A
// shard whose workers are all stuck in long bodies needs nothing from the
// server either: its load never falls, so the runtime's router places new
// jobs elsewhere, and the siblings' cross-shard steals drain what it had
// queued.
//
// Config.PanicRetries is aimed at transient crashes: a job that fails with
// a task panic is resubmitted up to N times while the request's context is
// still alive (a fresh job, fresh tiles for /cholesky, the whole batch for
// coalesced endpoints) before the panic is surfaced as a 500. Retries are
// counted per endpoint as "panic_retried".
//
// The fault-injection harness (internal/chaos) exercises it through the
// runtime: `xkserve serve -chaos stall+panic:7 -panic-retries 20` arms
// seeded task panics and worker stalls behind the scheduler's nil-check
// fast path, and cmd/xkserve's TestServeChaosShards runs exactly that
// process, on four shards, under a mixed load that must see zero 500s.
//
// # Stats, latency and data races
//
// /stats reports queue_cap and the live queue_depth, the per-endpoint
// aggregates (atomics maintained from per-job stats, plus queued, 429,
// cancelled, server_cancelled, batches and batched counts; shed is always
// 0), and two lock-free HDR-style histograms per endpoint
// (internal/latency): end-to-end request latency and queue wait, each
// summarized as count/mean/p50/p90/p99/max with ≤12.5% relative bucket
// error. The full
// scheduler counters ride along: every per-worker counter, task-path
// included, is a cache-line-padded atomic, so mid-flight reads are
// race-free and each value is a monotone lower bound of the true count.
// Operators can watch Executed advance while long jobs run; the exact
// balance Spawned == Executed + Cancelled holds once the pool drains,
// which the serve command verifies after its final drain.
//
// # Static gates
//
// Several of the invariants above are enforced at CI time, not just
// documented: `make lint` runs cmd/xkvet, the module's own analyzer
// suite (internal/analysis). taskctx rejects server kernels and task
// bodies that call context.Background/TODO or shadow the per-job context
// — the cancellation fan-out only works if bodies observe the context
// the job was given. hotpath keeps the files behind the lock-free
// claims (the deque, the worker scheduling loop, internal/latency) free
// of mutexes, channel operations, sleeps and fmt. jobfailsingleton
// pins the PanicError definition to internal/jobfail so the failure
// state machine stays singular, and atomicpad requires cache-line
// padding on atomics-bearing structs instantiated per-worker in slices.
// See internal/analysis for the conventions (//xk:hotpath, //xk:allow).
package server
