package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/internal/latency"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose client disconnected before the response; the job was cancelled
// through the request context.
const StatusClientClosedRequest = 499

// Config parameterizes a Server. Everything has serving defaults: with a
// nil Runtime the server builds (and owns) one from the Workers and Shards
// knobs.
type Config struct {
	// Runtime is the shared worker pool every request's job runs on. Nil
	// builds a runtime from Workers and Shards; the caller can reach it
	// through Server.Runtime (for the Wait/CloseErr drain sequence).
	Runtime *xkaapi.Runtime
	// Workers sets the total worker count when the server builds the
	// runtime itself (Runtime nil). Zero selects one per core. Ignored
	// when Runtime is provided.
	Workers int
	// Shards splits the self-built runtime into that many scheduler
	// shards behind the load-aware router (see xkaapi.WithShards); the
	// Workers are spread across them, ⌈Workers/Shards⌉ each. Zero or one
	// keeps the default one shard. Ignored when Runtime is provided.
	Shards int
	// Budget bounds the jobs in flight at once. Zero or negative selects
	// 2x the worker count.
	Budget int
	// QueueDepth bounds the admission queue: requests beyond the budget
	// wait here (FIFO, under their own deadline) instead of being
	// rejected; only when the queue is also full does the server answer
	// 429. Zero selects 4x the budget; negative disables queueing
	// (instant 429, the pre-queue behavior).
	QueueDepth int
	// BatchWindow is the coalescing window for small requests to the
	// kernel endpoints (/fib with n < 18, /loop with n < 1 000 000; larger
	// ones are always a job of their own): concurrent small requests
	// arriving within it — at most batchMax of them — are folded into one
	// batched root job. Zero selects 500µs; negative disables batching (one
	// job per request). In an idle process a window below a millisecond
	// lasts ≈ 1 ms: Go's netpoller rounds the timer sleep up.
	BatchWindow time.Duration
	// DefaultTimeout is the per-request deadline applied when the client
	// does not send a timeout parameter. Zero means no default deadline
	// (the request context still cancels on client disconnect).
	DefaultTimeout time.Duration
	// PanicRetries resubmits a request's job up to N times when it fails
	// with a *xkaapi.PanicError (a crashed task, injected or real), as long
	// as the request's own deadline still stands. Zero disables retries: a
	// panic is a 500, the pre-chaos behavior.
	PanicRetries int
}

// endpointStats aggregates one endpoint's outcomes. All counters are
// atomics and the histograms are lock-free: they are bumped from
// concurrent requests and read by /stats while the server runs.
type endpointStats struct {
	requests        atomic.Int64 // admitted (budget acquired)
	ok              atomic.Int64 // 200s
	rejected        atomic.Int64 // 429s (budget and queue full)
	failed          atomic.Int64 // job failures other than cancellation (500s)
	cancelled       atomic.Int64 // request deadline exceeded or client disconnected
	serverCancelled atomic.Int64 // server-side cancellation (Job.Cancel, drain): not a client disconnect

	queued  atomic.Int64 // requests that waited in the admission queue
	batches atomic.Int64 // coalesced batches dispatched (size > 1)
	batched atomic.Int64 // requests served via a coalesced batch

	panicRetried atomic.Int64 // panic-failed jobs resubmitted (Config.PanicRetries)

	taskExecuted  atomic.Int64 // per-job stats, summed over requests
	taskCancelled atomic.Int64
	taskPanicked  atomic.Int64

	latency   latency.Histogram // end-to-end: admission to response status
	queueWait latency.Histogram // time spent parked in the admission queue
}

// EndpointStats is the JSON form of one endpoint's aggregates in /stats.
type EndpointStats struct {
	Requests        int64 `json:"requests"`
	OK              int64 `json:"ok"`
	Rejected        int64 `json:"rejected"`
	Failed          int64 `json:"failed"`
	Cancelled       int64 `json:"cancelled"`
	ServerCancelled int64 `json:"server_cancelled"`

	Queued  int64 `json:"queued"`
	Batches int64 `json:"batches"`
	Batched int64 `json:"batched"`

	// Shed always reads 0: the server sheds nothing. The key stays on the
	// wire because the benchmark of record still decodes it; drop it once
	// that reader is gone.
	Shed         int64 `json:"shed"`
	PanicRetried int64 `json:"panic_retried"`

	TaskExecuted  int64 `json:"task_executed"`
	TaskCancelled int64 `json:"task_cancelled"`
	TaskPanicked  int64 `json:"task_panicked"`

	Latency   latency.Summary `json:"latency"`
	QueueWait latency.Summary `json:"queue_wait"`
}

func (es *endpointStats) snapshot() EndpointStats {
	return EndpointStats{
		Requests:        es.requests.Load(),
		OK:              es.ok.Load(),
		Rejected:        es.rejected.Load(),
		Failed:          es.failed.Load(),
		Cancelled:       es.cancelled.Load(),
		ServerCancelled: es.serverCancelled.Load(),
		Queued:          es.queued.Load(),
		Batches:         es.batches.Load(),
		Batched:         es.batched.Load(),
		PanicRetried:    es.panicRetried.Load(),
		TaskExecuted:    es.taskExecuted.Load(),
		TaskCancelled:   es.taskCancelled.Load(),
		TaskPanicked:    es.taskPanicked.Load(),
		Latency:         es.latency.Summary(),
		QueueWait:       es.queueWait.Summary(),
	}
}

// batchMax caps how many requests one batch may coalesce.
const batchMax = 8

// Server turns HTTP requests into runtime jobs. Create it with New; it
// implements http.Handler.
type Server struct {
	rt       *xkaapi.Runtime
	mux      *http.ServeMux
	adq      *admitQueue // in-flight budget + bounded FIFO admission queue
	timeout  time.Duration
	draining atomic.Bool

	panicRetries int

	eps []*endpoint // the endpoint table: one row per workload
}

// New builds a Server over cfg.Runtime, or over a runtime of its own when
// cfg.Runtime is nil (shaped by cfg.Workers and cfg.Shards). Either way
// the caller owns the runtime's lifecycle — reach a self-built one through
// Server.Runtime for the shutdown order described at StartDrain. Close
// stops the coalescing collectors once no more requests can arrive.
func New(cfg Config) *Server { return newServer(cfg, builtinRows()) }

// newServer is New over an explicit endpoint table.
func newServer(cfg Config, rows []*endpoint) *Server {
	if cfg.Runtime == nil {
		opts := []xkaapi.Option{}
		if cfg.Workers > 0 {
			opts = append(opts, xkaapi.WithWorkers(cfg.Workers))
		}
		if cfg.Shards > 1 {
			opts = append(opts, xkaapi.WithShards(cfg.Shards))
		}
		cfg.Runtime = xkaapi.New(opts...)
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 2 * cfg.Runtime.Workers()
	}
	queueCap := cfg.QueueDepth
	switch {
	case queueCap == 0:
		queueCap = 4 * budget
	case queueCap < 0:
		queueCap = 0 // queue disabled: instant 429 past the budget
	}
	s := &Server{
		rt:      cfg.Runtime,
		mux:     http.NewServeMux(),
		adq:     newAdmitQueue(budget, queueCap),
		timeout: cfg.DefaultTimeout,

		panicRetries: cfg.PanicRetries,
		eps:          rows,
	}
	window := cfg.BatchWindow
	if window == 0 {
		window = 500 * time.Microsecond
	}
	for _, ep := range s.eps {
		if ep.kernel != nil {
			ep.attempt = submitKernel
			if window > 0 {
				ep.batch = newBatcher(window, batchMax, func(items []*batchItem) { s.runBatch(ep, items) })
			}
		}
		s.mux.HandleFunc("GET /"+ep.name, func(w http.ResponseWriter, r *http.Request) { s.serve(ep, w, r) })
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// ServeHTTP dispatches a workload request to the pipeline (serve) with its
// endpoint's row; /healthz and /stats bypass admission entirely.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Runtime returns the pool the server submits to — the one from Config, or
// the one the server built itself when Config.Runtime was nil. The caller
// drains and closes it (Runtime.Wait, Runtime.CloseErr) after the HTTP
// server has shut down.
func (s *Server) Runtime() *xkaapi.Runtime { return s.rt }

// Budget returns the configured in-flight job budget.
func (s *Server) Budget() int { return s.adq.budget }

// QueueCap returns the admission queue bound (0 when queueing is disabled).
func (s *Server) QueueCap() int { return s.adq.maxQueue }

// InFlight returns the number of budget slots currently held.
func (s *Server) InFlight() int { return s.adq.inFlight() }

// QueueDepth returns the number of requests currently waiting for a slot.
func (s *Server) QueueDepth() int { return s.adq.depth() }

// PanicRetried returns the number of job attempts resubmitted after a
// panic (Config.PanicRetries), summed over the endpoints: each one is a
// failed job in the runtime's counts that no client saw.
func (s *Server) PanicRetried() int64 {
	var n int64
	for _, ep := range s.eps {
		n += ep.stats.panicRetried.Load()
	}
	return n
}

// StartDrain switches the server into draining mode: /healthz reports 503
// so load balancers stop routing here, new workload requests are refused
// with 503, and every request waiting in the admission queue is refused the
// same way. The draining flag and slot grants share one mutex, so once
// StartDrain returns no request — racing or future — is admitted. The
// caller then shuts the http.Server down (which waits for in-flight
// handlers) and drains the runtime with Runtime.Wait / Runtime.CloseErr.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.adq.startDrain()
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the request-coalescing collectors. Call it after the HTTP
// server is shut down (no handler can submit anymore); batches already
// collected still complete.
func (s *Server) Close() {
	for _, ep := range s.eps {
		if ep.batch != nil {
			ep.batch.close()
		}
	}
}

// admit applies admission control for one workload request: refuse with
// 503 while draining; otherwise take a budget slot, waiting in the bounded
// FIFO queue under the request's own deadline when the budget is busy.
// Only a full queue is refused outright (429 + Retry-After); a deadline
// expiring or the client vanishing while queued answers 504/499 without
// the slot ever being held. On true the caller must release() the slot
// when the job is done.
func (s *Server) admit(ep *endpointStats, w http.ResponseWriter, ctx context.Context) bool {
	code, wait, queuedWait := s.adq.acquire(ctx)
	if queuedWait {
		ep.queued.Add(1)
		ep.queueWait.Record(wait)
	}
	switch code {
	case admitOK:
		ep.requests.Add(1)
		return true
	case admitDraining:
		http.Error(w, "server draining", http.StatusServiceUnavailable)
	case admitQueueFull:
		ep.rejected.Add(1)
		// Advertise the observed time-to-a-free-slot (queue depth over the
		// measured grant rate, rounded up and bounded), not a constant: a
		// client backing off for exactly as long as the drain needs retries
		// once, where a flat 1s either hammers a slow drain or oversleeps a
		// fast one.
		w.Header().Set("Retry-After", strconv.Itoa(s.adq.retryAfterSecs()))
		http.Error(w, "job budget and admission queue exhausted", http.StatusTooManyRequests)
	case admitDeadline:
		ep.cancelled.Add(1)
		http.Error(w, "deadline expired in admission queue", http.StatusGatewayTimeout)
	case admitDisconnect:
		ep.cancelled.Add(1)
		// The client is gone; the status is for logs and middleware.
		http.Error(w, "client closed request while queued", StatusClientClosedRequest)
	}
	return false
}

func (s *Server) release() { s.adq.release() }

// finish folds one request outcome into the endpoint aggregates — outcome
// counters and the end-to-end latency histogram — and maps it to an HTTP
// status: 200 on verified success, 504 on deadline, 499 on client
// disconnect, 503 on a server-side cancellation or a closing runtime, 500
// on a panic, any other failure, or a result that failed verification
// (resultOK false with a nil error) — so wrong results are visible in the
// status code and in /stats, not only in the response's ok field.
//
// Cancellation is disambiguated against reqCtx (the *request's* context,
// not the derived job context): a job error of context.Canceled or
// xkaapi.ErrCanceled only means the *client* went away when the request
// context itself died. A server-side Job.Cancel or a drain-time
// cancellation reaches here with a live request context and is counted as
// server_cancelled (503: the client did nothing wrong and should retry
// elsewhere) instead of being mislabeled a 499 client-closed-request.
func (s *Server) finish(ep *endpointStats, admitted time.Time, reqCtx context.Context, err error, resultOK bool) int {
	ep.latency.Record(time.Since(admitted))
	switch {
	case err == nil && resultOK:
		ep.ok.Add(1)
		return http.StatusOK
	case err == nil: // completed but failed verification
		ep.failed.Add(1)
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		ep.cancelled.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, xkaapi.ErrCanceled):
		if reqCtx != nil && reqCtx.Err() != nil {
			ep.cancelled.Add(1)
			return StatusClientClosedRequest
		}
		ep.serverCancelled.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, xkaapi.ErrClosed):
		ep.failed.Add(1)
		return http.StatusServiceUnavailable
	default:
		ep.failed.Add(1)
		return http.StatusInternalServerError
	}
}

// reply is the JSON body of every workload response, successful or not.
// Result, Gflops and Residual are pointers so a legitimate zero — fib(0),
// a verified residual of exactly 0 — is serialized instead of being
// dropped by omitempty while ok is true.
type reply struct {
	Endpoint  string `json:"endpoint"`
	N         int    `json:"n"`
	NB        int    `json:"nb,omitempty"`
	Batch     int    `json:"batch,omitempty"` // batch size when the request rode a coalesced job
	Result    *int64 `json:"result,omitempty"`
	Gflops    *flt   `json:"gflops,omitempty"`
	Residual  *flt   `json:"residual,omitempty"`
	OK        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`

	Job xkaapi.JobStats `json:"job"`
}

// flt marshals with a short fixed precision so responses stay readable.
type flt float64

func (f flt) MarshalJSON() ([]byte, error) {
	return []byte(strconv.FormatFloat(float64(f), 'g', 6, 64)), nil
}

func fltPtr(v float64) *flt { f := flt(v); return &f }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // write error means the client is gone; nothing to do
}

// handleHealthz reports two states: 503 "draining" (stop routing here) and
// 200 "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// StatsReply is the JSON body of /stats.
type StatsReply struct {
	Workers    int                      `json:"workers"`
	Shards     int                      `json:"shards"`
	Budget     int                      `json:"budget"`
	InFlight   int                      `json:"in_flight"`
	QueueCap   int                      `json:"queue_cap"`
	QueueDepth int                      `json:"queue_depth"`
	Draining   bool                     `json:"draining"`
	Endpoints  map[string]EndpointStats `json:"endpoints"`
	// Scheduler carries the full live scheduler counters — summed over
	// every shard on a sharded runtime: the task-path counters
	// (Spawned/Executed/Cancelled/...) are per-worker padded atomics, so
	// /stats reports real task throughput while jobs are in flight — each
	// value is a monotone lower bound; exact balance (spawned == executed
	// + cancelled) holds once the pool drains, and on a sharded runtime
	// only at this aggregate level (migrated jobs are counted where they
	// ran; see ShardStats).
	Scheduler xkaapi.Stats `json:"scheduler"`
	// ShardStats is the per-shard breakdown, present only when the runtime
	// is sharded (shards > 1): one entry per shard, in shard order.
	ShardStats []ShardStatsReply `json:"shard_stats,omitempty"`
}

// ShardStatsReply is one shard's entry in StatsReply: where jobs were
// placed (live_roots, inbox_len), how many migrated in or out through
// cross-shard stealing, and the shard's own task counters.
type ShardStatsReply struct {
	Shard     int   `json:"shard"`
	Workers   int   `json:"workers"`
	InboxLen  int64 `json:"inbox_len"`
	LiveRoots int64 `json:"live_roots"`
	StolenIn  int64 `json:"stolen_in"`
	StolenOut int64 `json:"stolen_out"`
	Executed  int64 `json:"executed"`
	Spawned   int64 `json:"spawned"`
	Cancelled int64 `json:"cancelled"`
	Parks     int64 `json:"parks"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := StatsReply{
		Workers:    s.rt.Workers(),
		Shards:     s.rt.Shards(),
		Budget:     s.Budget(),
		InFlight:   s.InFlight(),
		QueueCap:   s.QueueCap(),
		QueueDepth: s.QueueDepth(),
		Draining:   s.draining.Load(),
		Endpoints:  make(map[string]EndpointStats, len(s.eps)),
		Scheduler:  s.rt.Stats(),
	}
	for _, ep := range s.eps {
		reply.Endpoints[ep.name] = ep.stats.snapshot()
	}
	if reply.Shards > 1 {
		for _, ss := range s.rt.ShardStats() {
			reply.ShardStats = append(reply.ShardStats, ShardStatsReply{
				Shard:     ss.Shard,
				Workers:   ss.Workers,
				InboxLen:  ss.InboxLen,
				LiveRoots: ss.LiveRoots,
				StolenIn:  ss.StolenIn,
				StolenOut: ss.StolenOut,
				Executed:  ss.Sched.Executed,
				Spawned:   ss.Sched.Spawned,
				Cancelled: ss.Sched.Cancelled,
				Parks:     ss.Sched.Parks,
			})
		}
	}
	writeJSON(w, http.StatusOK, reply)
}
