package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"xkaapi/server"
)

// serveWorkload drives the HTTP front-end in process, over a real loopback
// listener. It has two shapes:
//
// serve_mixed_open — independent users: an open loop of seeded Poisson
// arrivals at a fixed rate, a mix of all three endpoints whose keys rarely
// repeat, each request timed from when it was due.
//
// serve_hot_closed — saturation on cheap requests: P callers in a closed
// loop drawing small requests Zipf-distributed from 64 fixed keys, so the
// per-request cost of the server layer dominates and key reuse is high.
type serveWorkload struct {
	cfg     config
	mixed   bool          // traffic: the three-endpoint mix, or the hot keys
	open    bool          // loop: open at mixedRate, or closed (the mix in a closed loop is TestMixedCapacity's)
	clients int           // connections (open) or callers (closed)
	limit   time.Duration // latency limit an operation must meet to count
	counts

	srv      *server.Server
	hs       *http.Server
	served   chan error
	load     *httpLoad
	schedule []request // open loop
	hot      []request // closed loop: the fixed keys
	zipf     zipf

	recs          []opRecord
	elapsed       time.Duration
	before, after server.StatsReply
	poolA, poolB  poolSnap
}

// Fixed parameters of the serving workloads (README, "Fixed parameters").
const (
	serveShards = 2
	// mixedRate is about half the measured closed-loop capacity of the mixed
	// traffic at P = 2 (README, "Calibration"). It is a constant: changing
	// it changes the workload.
	mixedRate  = 400.0
	mixedLimit = 50 * time.Millisecond
	hotLimit   = 20 * time.Millisecond
	// mixedConns bounds the open loop's requests in flight: enough to fill
	// the admission queue at the reference P. setup lowers it to stay below
	// the server's budget plus queue, so the loop never draws a 429.
	mixedConns = 16
)

func newServeWorkload(cfg config, name string) *serveWorkload {
	if name == "serve_mixed_open" {
		return &serveWorkload{cfg: cfg, mixed: true, open: true, clients: mixedConns, limit: mixedLimit}
	}
	hot := hotKeys()
	return &serveWorkload{cfg: cfg, clients: cfg.p, limit: hotLimit, hot: hot, zipf: newZipf(len(hot), hotZipfS)}
}

func (w *serveWorkload) setup() error {
	w.srv = server.New(server.Config{Workers: w.cfg.p, Shards: serveShards})
	if w.open {
		w.schedule = mixedSchedule(w.cfg.seed, mixedRate, w.cfg.window)
		w.clients = min(mixedConns, w.srv.Budget()+w.srv.QueueCap()-1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	conns := w.clients
	w.load = &httpLoad{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
	var h http.Handler = w.srv
	if w.cfg.tr != nil {
		w.load.timed = &timedHandler{next: w.srv, tr: w.cfg.tr, dur: map[uint64]int64{}}
		h = w.load.timed
	}
	w.hs = &http.Server{Handler: h}
	w.served = make(chan error, 1) // one send: Serve's return
	go func() { w.served <- w.hs.Serve(ln) }()

	// Warm-up: the same traffic, closed loop, unrecorded.
	for _, rec := range w.load.closedLoop(w.cfg.p, w.cfg.warm, w.draws(1<<32)) {
		if !rec.ok {
			return fmt.Errorf("warm-up: %s", rec.why)
		}
	}
	return nil
}

// draws returns the per-client request streams of a closed loop: the
// workload's own traffic, seeded by the run seed, the salt and the client.
func (w *serveWorkload) draws(salt uint64) func(client int) func() request {
	return func(client int) func() request {
		r := newRand(w.cfg.seed, salt+uint64(client))
		if w.mixed {
			return func() request { return mixedRequest(&r) }
		}
		return func() request { return w.hot[w.zipf.draw(&r)] }
	}
}

func (w *serveWorkload) stats() (server.StatsReply, error) {
	var st server.StatsReply
	resp, err := w.load.client.Get(w.load.base + "/stats")
	if err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

func (w *serveWorkload) measure() error {
	var err error
	if w.before, err = w.stats(); err != nil {
		return err
	}
	w.poolA = snapPool(w.srv.Runtime())
	w.load.tr = w.cfg.tr
	t0 := time.Now()
	if w.open {
		w.recs = w.load.openLoop(w.schedule, w.clients)
	} else {
		w.recs = w.load.closedLoop(w.clients, w.cfg.window, w.draws(100))
	}
	w.elapsed = time.Since(t0) // as measured: the open loop ends with its last reply, a few milliseconds either side of the window
	w.load.tr = nil
	w.poolB = snapPool(w.srv.Runtime())
	if w.after, err = w.stats(); err != nil {
		return err
	}
	for _, rec := range w.recs {
		w.attempted++
		if !rec.ok {
			w.fail("%s", rec.why)
		}
	}
	return nil
}

func (w *serveWorkload) report(m *metrics) {
	var due, lat, lag, traced, plain, handler, transport samples
	var byKind [numKinds]samples
	for _, rec := range w.recs {
		lag = append(lag, rec.sent-rec.due)
		if !rec.ok {
			continue // a failure misses the limit and has no latency
		}
		d := rec.done - rec.due
		due = append(due, rec.due)
		lat = append(lat, d)
		byKind[rec.kind] = append(byKind[rec.kind], d)
		if rec.traced {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		if rec.handlerNS > 0 {
			handler = append(handler, time.Duration(rec.handlerNS))
			transport = append(transport, rec.done-rec.sent-time.Duration(rec.handlerNS))
		}
	}
	endToEndMetrics(m, timeSlices(w.cfg.window, due, lat, w.limit))
	traceOverhead(m, traced, plain)

	w.counts.report(m, w.elapsed)
	lagR, handlerR := lag.ranked(), handler.ranked()
	m.timing("loadgen.lag_ms_p50", lagR.ms(0.50), len(lag))
	m.timing("loadgen.lag_ms_p99", lagR.ms(0.99), len(lag))
	m.set("loadgen.key_reuse_share", keyReuseShare(w.recs))

	m.timing("server.handler_ms_p50", handlerR.ms(0.50), len(handler))
	m.timing("server.handler_ms_p99", handlerR.ms(0.99), len(handler))
	m.timing("server.transport_ms_p50", transport.p50(), len(transport))
	m.timing("server.fib_ms_p50", byKind[kindFib].p50(), len(byKind[kindFib]))
	m.timing("server.loop_ms_p50", byKind[kindLoop].p50(), len(byKind[kindLoop]))
	m.timing("server.cholesky_ms_p50", byKind[kindChol].p50(), len(byKind[kindChol]))

	// The server's own counters, as the change of /stats over the window.
	// Its histograms have no reset, so the queue-wait quantile covers the
	// server's life, warm-up included.
	var requests, rejected, queued, shed, batches, batched float64
	var queueWait int64
	for name, b := range w.after.Endpoints {
		a := w.before.Endpoints[name]
		req := float64(b.Requests - a.Requests)
		requests += req
		rejected += float64(b.Rejected - a.Rejected)
		queued += float64(b.Queued - a.Queued)
		shed += float64(b.Shed - a.Shed)
		batches += float64(b.Batches - a.Batches)
		batched += float64(b.Batched - a.Batched)
		queueWait = max(queueWait, b.QueueWait.P99NS)
		m.set("server."+name+"_tasks_per_request", ratio(float64(b.TaskExecuted-a.TaskExecuted), req))
	}
	arrived := requests + rejected + shed
	m.set("server.queue_wait_ms_p99", float64(queueWait)/1e6)
	m.set("server.queued_share", ratio(queued, requests))
	m.set("server.rejected_share", ratio(rejected, arrived))
	m.set("server.shed_share", ratio(shed, arrived))
	m.set("server.batch_mean_size", ratio(batched, batches))
	m.set("server.batched_share", ratio(batched, requests))

	// A coalesced batch is one root job for all its members.
	jobs := requests - batched + batches
	coreMetrics(m, w.poolA, w.poolB, w.srv.Runtime().Workers(), w.elapsed.Seconds(), jobs)
}

// close stops the server in its documented order and waits for the
// listener goroutine. A drain that loses a job is a benchmark failure.
func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	w.srv.StartDrain()
	if w.hs != nil {
		// The client hangs up first: Shutdown waits five seconds on a
		// connection the transport dialled ahead and never used.
		w.load.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 2*requestTimeout)
		err := w.hs.Shutdown(ctx)
		cancel()
		if err != nil {
			w.fail("server shutdown: %v", err)
		}
		<-w.served
	}
	w.srv.Close()
	if err := w.srv.Runtime().Wait(); err != nil {
		w.fail("server drain: %v", err)
	}
	if err := w.srv.Runtime().CloseErr(); err != nil {
		w.fail("server pool: %v", err)
	}
	w.srv, w.hs = nil, nil
}
