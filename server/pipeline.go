package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/internal/latency"
)

// endpoint is one row of the server's endpoint table: everything the
// request pipeline (Server.serve) needs to know about a workload. The
// pipeline owns every stage — parse, shed, admit, chaos delay, batch or
// submit, panic-retry, finish, reply — and a row only says what is specific
// to its workload, so adding an endpoint is adding a row (builtinRows).
type endpoint struct {
	name string // URL path ("/"+name), /stats key and the reply's endpoint field
	defN int    // n when the query carries none
	maxN int    // size cap: n above it is a 400; degraded mode sheds n > maxN/2

	// parse validates the query into a request; ceiling is the server's
	// default deadline (0: none), which a timeout parameter may only tighten.
	parse func(ep *endpoint, q url.Values, ceiling time.Duration) (request, error)
	// attempt submits ONE job for the request and waits for it. The pipeline
	// calls it again, from scratch, when the job failed with a task panic.
	// A row with a kernel leaves it unset: newServer makes it submitKernel.
	attempt func(s *Server, ctx context.Context, ep *endpoint, rq request) result
	// fill writes the row's reply fields for a job that completed without
	// error, including the verified ok (and the error line when it is false).
	fill func(rep *reply, rq request, res result, elapsed time.Duration)
	// kernel, when non-nil, computes the request as one sub-task of a shared
	// job: the row's small requests may then be coalesced (see batcher).
	kernel func(p *xkaapi.Proc, n int, out *int64)
	// coalesceBelow is the size below which a kernel row's request is small:
	// the only kind worth holding in the batch window (see builtinRows).
	coalesceBelow int

	batch *batcher // set by newServer for rows with a kernel; nil: one job per request
	stats endpointStats

	// Brownout state (see brownout.step). Only the controller goroutine
	// touches prev and the streaks; degraded is read by the pipeline.
	prev      latency.Snapshot // previous tick's cumulative latency histogram
	bad, good int              // consecutive violating / recovered windows
	degraded  atomic.Bool
}

// request is one parsed, validated workload request.
type request struct {
	n       int
	small   bool          // n < the row's coalesceBelow: the batcher may hold it for partners
	nb      int           // tile size, for rows that tile (0 elsewhere)
	verify  bool          // the client asked for the costly result check
	timeout time.Duration // the request's deadline; 0: none
}

// result is the outcome of one job attempt — or, for a coalesced request,
// its share of the batch job's outcome.
type result struct {
	value int64           // the computed number (rows with a kernel)
	check func() float64  // the costly check of the job's output, for a fill that offers one
	batch int             // how many requests rode the job
	stats xkaapi.JobStats // the job's task counters
	err   error
}

// serve is the request pipeline, the one place where a request changes
// stage. The latency clock starts once, at admission, so everything an
// admitted request waits for — the injected handler delay included — is in
// endpointStats.latency; elapsed_ns in the reply stays submit → result.
func (s *Server) serve(ep *endpoint, w http.ResponseWriter, r *http.Request) {
	rq, err := ep.parse(ep, r.URL.Query(), s.timeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The job context is the request context (cancelled by client
	// disconnect and server shutdown) under the request's deadline.
	ctx := r.Context()
	if rq.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rq.timeout)
		defer cancel()
	}
	if s.shedOversized(ep, w, rq.n) {
		return
	}
	if !s.admit(&ep.stats, w, ctx) {
		return
	}
	defer s.release()
	admitted := time.Now()
	s.chaosDelay()

	// Only small requests join a batch: a full-size one has nothing to
	// amortize by waiting out the window, and as a batch member it would be
	// confined to its batch's shard instead of being a root the router places
	// on the least-loaded one.
	start := time.Now()
	res, done := result{}, false
	if ep.batch != nil && rq.small {
		res, done = ep.batch.do(ctx, rq.n)
	}
	if !done {
		res = s.runJob(ctx, ep, func() result { return ep.attempt(s, ctx, ep, rq) })
	}
	elapsed := time.Since(start)

	rep := reply{Endpoint: ep.name, N: rq.n, NB: rq.nb, ElapsedNS: elapsed.Nanoseconds(), Job: res.stats}
	if res.batch > 1 {
		rep.Batch = res.batch
	}
	if res.err != nil {
		rep.Error = ErrorLine(res.err)
	} else {
		ep.fill(&rep, rq, res, elapsed)
	}
	writeJSON(w, s.finish(&ep.stats, admitted, r.Context(), res.err, rep.OK), rep)
}

// runJob drives one job — a request's own or a whole batch's — to its final
// outcome: it resubmits while the attempt fails with a retryable panic, and
// folds every attempt's task counters into the endpoint (a crashed
// attempt's work was real work).
func (s *Server) runJob(ctx context.Context, ep *endpoint, attempt func() result) result {
	for n := 0; ; n++ {
		res := attempt()
		ep.stats.taskExecuted.Add(res.stats.Executed)
		ep.stats.taskCancelled.Add(res.stats.Cancelled)
		ep.stats.taskPanicked.Add(res.stats.Panicked)
		if !s.retryOnPanic(ctx, res.err, n) {
			return res
		}
		ep.stats.panicRetried.Add(1)
	}
}

// retryOnPanic reports whether a failed job attempt should be resubmitted:
// the failure is a *xkaapi.PanicError (a crashed task — the one failure
// mode where a fresh attempt can honestly succeed), the job's context is
// still alive to use the result, and Config.PanicRetries attempts remain.
func (s *Server) retryOnPanic(ctx context.Context, err error, attempt int) bool {
	if err == nil || attempt >= s.panicRetries || ctx.Err() != nil {
		return false
	}
	var pe *xkaapi.PanicError
	return errors.As(err, &pe)
}

// chaosDelay is the server-layer injection site: an admitted request
// sleeps for the scenario's handler-delay pulse before submitting, driving
// the latency SLO (and therefore the brownout controller) without touching
// the scheduler. Free when no injector is armed.
func (s *Server) chaosDelay() {
	if cz := s.chaos; cz != nil {
		if d := cz.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
	}
}

// shedOversized is the brownout controller's load-shedding gate: while the
// endpoint is degraded, requests above half its size cap are refused with
// 503 + Retry-After before a budget slot is taken — the remaining capacity
// goes to the small requests that can still meet the SLO. A no-op while
// the endpoint is healthy or the controller is off.
func (s *Server) shedOversized(ep *endpoint, w http.ResponseWriter, n int) bool {
	if !ep.degraded.Load() || n*2 <= ep.maxN {
		return false
	}
	ep.stats.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.adq.retryAfterSecs()))
	http.Error(w, "degraded: oversized request shed", http.StatusServiceUnavailable)
	return true
}

// parseSize is the part of parse every row shares: n against the row's
// default and cap, and the request's deadline. A timeout parameter can only
// tighten the operator-configured ceiling, never exceed it — otherwise a
// client could hold a budget slot indefinitely.
func parseSize(ep *endpoint, q url.Values, ceiling time.Duration) (request, error) {
	n, err := intParam(q, "n", ep.defN, ep.maxN)
	if err != nil {
		return request{}, err
	}
	rq := request{n: n, timeout: ceiling}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return request{}, fmt.Errorf("bad timeout %q", v)
		}
		if ceiling == 0 || d < ceiling {
			rq.timeout = d
		}
	}
	return rq, nil
}

// intParam parses a non-negative integer query parameter with a default
// and a cap.
func intParam(q url.Values, name string, def, max int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	if n > max {
		return 0, fmt.Errorf("%s %d exceeds cap %d", name, n, max)
	}
	return n, nil
}
