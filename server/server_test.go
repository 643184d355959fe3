package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runtime == nil {
		cfg.Runtime = xkaapi.New(xkaapi.WithWorkers(4))
	}
	s := New(cfg)
	return s, startTestServer(t, s)
}

// startTestServer serves s over loopback and tears everything down, the
// runtime included, when the test ends.
func startTestServer(t *testing.T, s *Server) *httptest.Server {
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers
		s.Close()  // then stop the batch collectors
		if err := s.rt.CloseErr(); err != nil {
			t.Logf("runtime close: %v", err)
		}
	})
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// row returns the endpoint table's row by name.
func row(s *Server, name string) *endpoint {
	for _, ep := range s.eps {
		if ep.name == name {
			return ep
		}
	}
	panic("no endpoint row " + name)
}

// holdSlots takes n budget slots the way n in-flight jobs would.
func holdSlots(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if code, _, _ := s.adq.acquire(context.Background()); code != admitOK {
			t.Fatalf("holdSlots: acquire %d returned %v, want admitOK", i, code)
		}
	}
}

// TestEndpointsServeVerifiedJobs drives all three workload endpoints and
// checks each completes one verified job, with the outcomes attributed per
// endpoint in /stats.
func TestEndpointsServeVerifiedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, q := range []string{
		"/fib?n=18",
		"/loop?n=100000",
		"/cholesky?n=128&nb=32&verify=1",
	} {
		var rep reply
		if code := getJSON(t, ts.URL+q, &rep); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, code)
		}
		if !rep.OK {
			t.Errorf("GET %s: ok=false (error=%q reply=%+v)", q, rep.Error, rep)
		}
		if rep.Job.Executed == 0 {
			t.Errorf("GET %s: job executed 0 tasks", q)
		}
		if rep.Job.Cancelled != 0 || rep.Job.Panicked != 0 {
			t.Errorf("GET %s: job stats %+v, want no cancels/panics", q, rep.Job)
		}
	}

	var st StatsReply
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	for _, ep := range []string{"fib", "loop", "cholesky"} {
		es := st.Endpoints[ep]
		if es.Requests != 1 || es.OK != 1 || es.TaskExecuted == 0 {
			t.Errorf("endpoint %s stats = %+v, want 1 ok request with executed tasks", ep, es)
		}
		if es.Latency.Count != 1 || es.Latency.P50NS <= 0 || es.Latency.P99NS < es.Latency.P50NS {
			t.Errorf("endpoint %s latency summary = %+v, want 1 recorded request with ordered quantiles",
				ep, es.Latency)
		}
	}
	if st.Scheduler.Spawned < 3 {
		t.Errorf("scheduler live stats report %d submitted roots, want >= 3", st.Scheduler.Spawned)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v (status %v)", err, resp)
	}
	resp.Body.Close()
}

// TestBackpressure429NoQueue checks the pre-queue behavior survives behind
// QueueDepth < 0: with the budget full and no queue, the next request is
// rejected instantly with 429 + Retry-After, then succeeds once a slot
// frees up.
func TestBackpressure429NoQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2, QueueDepth: -1})

	holdSlots(t, s, 2)

	resp, err := http.Get(ts.URL + "/fib?n=10")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget GET /fib: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}

	// Free one slot: the endpoint serves again.
	s.release()
	var rep reply
	if code := getJSON(t, ts.URL+"/fib?n=10", &rep); code != http.StatusOK || !rep.OK {
		t.Fatalf("after release GET /fib: status %d ok=%v", code, rep.OK)
	}
	s.release()

	if got := row(s, "fib").stats.rejected.Load(); got != 1 {
		t.Errorf("fib rejected count = %d, want 1", got)
	}
	if row(s, "fib").stats.taskExecuted.Load() == 0 {
		t.Error("fib task_executed = 0 after a served request")
	}
}

// TestQueueAbsorbsBurst is the tentpole contract at test scale: a burst
// wider than the budget completes entirely with 200s because the overflow
// waits in the admission queue instead of being 429'd, and /stats reports
// the queue traffic.
func TestQueueAbsorbsBurst(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2))
	s, ts := newTestServer(t, Config{Runtime: rt, Budget: 1}) // queue defaults to 4

	const clients = 5 // 1 slot + 4 queued: exactly at capacity
	codes := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func() {
			var rep reply
			resp, err := http.Get(ts.URL + "/fib?n=16")
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if json.NewDecoder(resp.Body).Decode(&rep) != nil || !rep.OK {
				codes <- -2
				return
			}
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < clients; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("burst request %d: got %d, want every request queued to a 200", i, code)
		}
	}
	if got := row(s, "fib").stats.ok.Load(); got != clients {
		t.Errorf("fib ok = %d, want %d", got, clients)
	}
	if row(s, "fib").stats.rejected.Load() != 0 {
		t.Errorf("fib rejected = %d, want 0 (queue must absorb the burst)", row(s, "fib").stats.rejected.Load())
	}
	if row(s, "fib").stats.queued.Load() == 0 {
		t.Error("fib queued = 0, want > 0: the burst should have waited in the queue")
	}
	if qw := row(s, "fib").stats.queueWait.Summary(); qw.Count != row(s, "fib").stats.queued.Load() {
		t.Errorf("queue_wait count = %d, want %d (one sample per queued request)", qw.Count, row(s, "fib").stats.queued.Load())
	}
}

// TestQueuedDeadline504 checks a request whose deadline expires while it
// waits in the admission queue: 504, the budget slot is never held, and
// the wait is attributed to the queue (cancelled count, queue_wait sample,
// no admitted request).
func TestQueuedDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1})
	holdSlots(t, s, 1)

	resp, err := http.Get(ts.URL + "/fib?n=10&timeout=40ms")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued GET /fib with 40ms deadline: status %d, want 504", resp.StatusCode)
	}
	if got := row(s, "fib").stats.requests.Load(); got != 0 {
		t.Errorf("fib requests = %d, want 0: an expired queued request must never be admitted", got)
	}
	if got := row(s, "fib").stats.cancelled.Load(); got != 1 {
		t.Errorf("fib cancelled = %d, want 1", got)
	}
	if got := row(s, "fib").stats.queued.Load(); got != 1 {
		t.Errorf("fib queued = %d, want 1", got)
	}
	if got := s.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1 (only the held slot; the 504'd request held none)", got)
	}
	s.release()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after release, want 0", got)
	}
}

// TestQueuedClientDisconnect checks a client vanishing while queued: the
// waiter is abandoned (499 path), its queue position is skipped on the
// next release, and the slot is never leaked.
func TestQueuedClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1})
	holdSlots(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/fib?n=10", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the request is parked in the queue, then hang up.
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Error("disconnected client got a response, want a cancelled transport error")
	}
	// The server-side handler finishes asynchronously; wait for its verdict.
	waitFor(t, time.Second, func() bool { return row(s, "fib").stats.cancelled.Load() == 1 })
	if got := row(s, "fib").stats.requests.Load(); got != 0 {
		t.Errorf("fib requests = %d, want 0", got)
	}
	// The abandoned waiter must not absorb the next released slot.
	s.release()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after release, want 0 (abandoned waiter must not hold the slot)", got)
	}
}

// TestQueueFull429 fills the budget and the queue and checks the next
// request is rejected with 429 + Retry-After, while the queued one is
// served once a slot frees up (FIFO handoff).
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1, QueueDepth: 1})
	holdSlots(t, s, 1)

	queued := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/fib?n=10")
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })

	resp, err := http.Get(ts.URL + "/fib?n=10")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full GET /fib: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := row(s, "fib").stats.rejected.Load(); got != 1 {
		t.Errorf("fib rejected = %d, want 1", got)
	}

	s.release() // hand the slot to the queued request
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request completed with %d, want 200 after FIFO handoff", code)
	}
}

// TestNoAdmissionAfterStartDrain closes the StartDrain/admit race: the
// draining flag and slot grants share one mutex, so once StartDrain
// returns, no acquire that began afterwards can be admitted — including
// after slots free up — and every waiter already queued is refused.
func TestNoAdmissionAfterStartDrain(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt, Budget: 1})
	defer s.Close()

	holdSlots(t, s, 1)
	waiterCode := make(chan admitCode, 1)
	go func() {
		code, _, _ := s.adq.acquire(context.Background())
		waiterCode <- code
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })

	s.StartDrain()
	if code := <-waiterCode; code != admitDraining {
		t.Errorf("queued waiter got %v at drain, want admitDraining", code)
	}
	if code, _, _ := s.adq.acquire(context.Background()); code != admitDraining {
		t.Errorf("post-drain acquire got %v, want admitDraining", code)
	}
	s.release() // the pre-drain job finishes; its slot must not admit anyone
	if code, _, _ := s.adq.acquire(context.Background()); code != admitDraining {
		t.Errorf("post-drain post-release acquire got %v, want admitDraining", code)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after drain and release, want 0", got)
	}
}

// TestDrainAdmitRaceHammer races many admitters against StartDrain under
// the race detector: any acquire that starts after StartDrain returned
// must be refused.
func TestDrainAdmitRaceHammer(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt, Budget: 2})
	defer s.Close()

	var drained atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sawDrain := drained.Load()
				code, _, _ := s.adq.acquire(context.Background())
				if code == admitOK {
					if sawDrain {
						t.Error("request admitted after StartDrain returned")
					}
					s.release()
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.StartDrain()
	drained.Store(true)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after hammer drain, want 0", got)
	}
}

// TestBatchCoalescing fires concurrent /fib and /loop requests with
// distinct problem sizes into a wide-open coalescing window and checks (a)
// every request gets its own correct sub-result — batching must never
// cross-deliver — and (b) at least one batch actually coalesced. Run under
// -race via `make race`.
func TestBatchCoalescing(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(4))
	s, ts := newTestServer(t, Config{
		Runtime:     rt,
		Budget:      16,
		BatchWindow: 100 * time.Millisecond,
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 10 + c
			var rep reply
			if code := getJSON(t, fmt.Sprintf("%s/fib?n=%d", ts.URL, n), &rep); code != http.StatusOK {
				errs <- fmt.Errorf("fib n=%d: status %d", n, code)
				return
			}
			if rep.Result == nil || *rep.Result != FibSeq(n) || !rep.OK {
				errs <- fmt.Errorf("fib n=%d: result %v ok=%v, want %d", n, rep.Result, rep.OK, FibSeq(n))
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 10_000 * (c + 1)
			want := int64(n) * int64(n-1) / 2
			var rep reply
			if code := getJSON(t, fmt.Sprintf("%s/loop?n=%d", ts.URL, n), &rep); code != http.StatusOK {
				errs <- fmt.Errorf("loop n=%d: status %d", n, code)
				return
			}
			if rep.Result == nil || *rep.Result != want || !rep.OK {
				errs <- fmt.Errorf("loop n=%d: result %v ok=%v, want %d", n, rep.Result, rep.OK, want)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if row(s, "fib").stats.batched.Load() < 2 && row(s, "loop").stats.batched.Load() < 2 {
		t.Errorf("no coalescing observed (fib batched=%d, loop batched=%d) despite a %v window",
			row(s, "fib").stats.batched.Load(), row(s, "loop").stats.batched.Load(), 100*time.Millisecond)
	}
	// Per-request outcome accounting is per member; task counters are per
	// batch — both must reflect all requests.
	if got := row(s, "fib").stats.ok.Load(); got != clients {
		t.Errorf("fib ok = %d, want %d", got, clients)
	}
	if row(s, "fib").stats.taskExecuted.Load() == 0 || row(s, "loop").stats.taskExecuted.Load() == 0 {
		t.Error("batched endpoints report zero executed tasks")
	}
}

// TestZeroResultNotOmitted is the omitempty regression: /fib?n=0 and
// /loop?n=0 legitimately compute 0 and the JSON body must still carry the
// result field alongside ok=true.
func TestZeroResultNotOmitted(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, q := range []string{"/fib?n=0", "/loop?n=0"} {
		var raw map[string]json.RawMessage
		if code := getJSON(t, ts.URL+q, &raw); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, code)
		}
		res, present := raw["result"]
		if !present {
			t.Errorf("GET %s: zero result omitted from JSON body", q)
			continue
		}
		var v int64 = -1
		if err := json.Unmarshal(res, &v); err != nil || v != 0 {
			t.Errorf("GET %s: result = %s, want 0", q, res)
		}
		var ok bool
		if err := json.Unmarshal(raw["ok"], &ok); err != nil || !ok {
			t.Errorf("GET %s: ok = %s, want true", q, raw["ok"])
		}
	}
}

// TestCholeskyDefaultNBClamped is the tile-size regression: with no nb
// parameter and n smaller than the old default 64, the server must clamp
// the default to n instead of factoring with nb > n.
func TestCholeskyDefaultNBClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var rep reply
	if code := getJSON(t, ts.URL+"/cholesky?n=32&verify=1", &rep); code != http.StatusOK {
		t.Fatalf("GET /cholesky?n=32: status %d (error %q)", code, rep.Error)
	}
	if rep.NB != 32 {
		t.Errorf("default nb for n=32 = %d, want clamped to 32", rep.NB)
	}
	if !rep.OK || rep.Residual == nil {
		t.Errorf("clamped factorization not verified: ok=%v residual=%v", rep.OK, rep.Residual)
	}
	// Larger orders keep the old default.
	if code := getJSON(t, ts.URL+"/cholesky?n=128", &rep); code != http.StatusOK || rep.NB != 64 {
		t.Errorf("default nb for n=128 = %d (status %d), want 64", rep.NB, code)
	}
}

// TestServerCancelNotClientDisconnect checks the cancellation taxonomy: a
// job error of context.Canceled / xkaapi.ErrCanceled is a 499 client
// disconnect only when the request's own context died; a server-side
// cancellation with a live request context is 503 and counted separately.
func TestServerCancelNotClientDisconnect(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1))
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt})
	defer s.Close()

	live := httptest.NewRequest("GET", "/fib?n=10", nil).Context()
	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name   string
		reqCtx context.Context
		err    error
		status int
		client int64 // expected cancelled delta
		server int64 // expected server_cancelled delta
	}{
		{"job.Cancel, client live", live, xkaapi.ErrCanceled, http.StatusServiceUnavailable, 0, 1},
		{"drain-style cancel, client live", live, context.Canceled, http.StatusServiceUnavailable, 0, 1},
		{"client disconnect", deadCtx, context.Canceled, StatusClientClosedRequest, 1, 0},
		{"deadline", live, context.DeadlineExceeded, http.StatusGatewayTimeout, 1, 0},
	} {
		beforeClient := row(s, "fib").stats.cancelled.Load()
		beforeServer := row(s, "fib").stats.serverCancelled.Load()
		got := s.finish(&row(s, "fib").stats, time.Now(), tc.reqCtx, tc.err, false)
		if got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
		if d := row(s, "fib").stats.cancelled.Load() - beforeClient; d != tc.client {
			t.Errorf("%s: cancelled delta %d, want %d", tc.name, d, tc.client)
		}
		if d := row(s, "fib").stats.serverCancelled.Load() - beforeServer; d != tc.server {
			t.Errorf("%s: server_cancelled delta %d, want %d", tc.name, d, tc.server)
		}
	}
}

// TestDeadlineCancelsCholesky submits a Cholesky factorization far larger
// than its deadline allows and checks the deadline actually stops the job:
// 504 status, and the job's (and endpoint's) Cancelled counters grow
// because remaining tile tasks were skipped.
func TestDeadlineCancelsCholesky(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var rep reply
	code := getJSON(t, ts.URL+"/cholesky?n=768&nb=32&timeout=2ms", &rep)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("GET /cholesky with 2ms deadline: status %d, want 504 (reply %+v)", code, rep)
	}
	if rep.Job.Cancelled == 0 {
		t.Errorf("deadline-exceeded job cancelled 0 tasks, want > 0 (job %+v)", rep.Job)
	}
	if row(s, "cholesky").stats.cancelled.Load() != 1 {
		t.Errorf("cholesky endpoint cancelled = %d, want 1", row(s, "cholesky").stats.cancelled.Load())
	}
	if row(s, "cholesky").stats.taskCancelled.Load() == 0 {
		t.Error("cholesky endpoint task_cancelled = 0, want > 0")
	}

	// The pool survives the cancelled job: a small request still completes.
	if code := getJSON(t, ts.URL+"/cholesky?n=64&nb=32&verify=1", &rep); code != http.StatusOK || !rep.OK {
		t.Fatalf("after cancel GET /cholesky: status %d ok=%v", code, rep.OK)
	}
}

// TestDrainRefusesNewWork checks drain semantics: after StartDrain the
// health check and the workload endpoints report 503, so load balancers
// stop routing and no new jobs are admitted.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	s.StartDrain()
	for _, q := range []string{"/healthz", "/fib?n=10"} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s while draining: status %d, want 503", q, resp.StatusCode)
		}
	}
	if !s.Draining() {
		t.Error("Draining() = false after StartDrain")
	}
}

// TestMixedBurstUnderBudget hammers the server with a concurrent mixed
// workload wider than the budget: every request must end as either a
// verified 200 or a clean 429, and once drained the per-endpoint
// accounting must add up. With the admission queue at its default depth
// the whole burst is expected to be absorbed.
func TestMixedBurstUnderBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 3})

	const clients = 12
	type outcome struct {
		code int
		ok   bool
	}
	results := make(chan outcome, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			q := []string{"/fib?n=16", "/loop?n=50000", "/cholesky?n=96&nb=32"}[c%3]
			resp, err := http.Get(ts.URL + q)
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			defer resp.Body.Close()
			var rep reply
			ok := json.NewDecoder(resp.Body).Decode(&rep) == nil && rep.OK
			results <- outcome{code: resp.StatusCode, ok: ok}
		}(c)
	}
	served, rejected := 0, 0
	for i := 0; i < clients; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
			if !r.ok {
				t.Error("200 response with ok=false")
			}
			served++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if served == 0 {
		t.Error("no request served")
	}
	if served+rejected != clients {
		t.Errorf("served %d + rejected %d != %d clients", served, rejected, clients)
	}
	t.Logf("served=%d rejected=%d (budget %d, queue %d)", served, rejected, s.Budget(), s.QueueCap())

	if err := s.rt.Wait(); err != nil {
		t.Errorf("runtime drain after burst: %v", err)
	}
	var admitted, okCount int64
	for _, ep := range s.eps {
		admitted += ep.stats.requests.Load()
		okCount += ep.stats.ok.Load()
	}
	if admitted != int64(served) || okCount != int64(served) {
		t.Errorf("endpoint accounting: admitted=%d ok=%d, want both %d", admitted, okCount, served)
	}
}

// TestTimeoutParamCannotExceedCeiling checks the timeout query parameter
// only tightens the operator-configured default deadline: a client asking
// for a huge timeout still gets the server ceiling.
func TestTimeoutParamCannotExceedCeiling(t *testing.T) {
	const ceiling = 50 * time.Millisecond
	for _, ep := range builtinRows(Config{}) {
		for _, tc := range []struct {
			query string
			want  time.Duration
		}{
			{"timeout=8760h", ceiling},              // capped at ceiling
			{"timeout=10ms", 10 * time.Millisecond}, // tighter than ceiling: honored
			{"", ceiling},                           // no param: ceiling
		} {
			q, _ := url.ParseQuery(tc.query)
			rq, err := ep.parse(ep, q, ceiling)
			if err != nil || rq.timeout != tc.want {
				t.Errorf("%s parse(%q): timeout %v (err %v), want %v", ep.name, tc.query, rq.timeout, err, tc.want)
			}
		}
	}

	// End to end: Config.DefaultTimeout is that ceiling. Behind a held slot a
	// request can only leave the queue by its deadline, so a 504 — with no
	// timeout parameter, or with one far above the ceiling — shows the
	// configured value reached the job context.
	s, ts := newTestServer(t, Config{DefaultTimeout: 30 * time.Millisecond, Budget: 1})
	holdSlots(t, s, 1)
	defer s.release()
	client := http.Client{Timeout: 5 * time.Second} // a lost ceiling fails here instead of hanging
	for _, ep := range s.eps {
		for _, query := range []string{"", "?timeout=8760h"} {
			resp, err := client.Get(ts.URL + "/" + ep.name + query)
			if err != nil {
				t.Fatalf("GET /%s%s queued under a 30ms DefaultTimeout: %v", ep.name, query, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("GET /%s%s queued under a 30ms DefaultTimeout: status %d, want 504", ep.name, query, resp.StatusCode)
			}
		}
	}
}

// TestStatsEndpointShape checks /stats is valid JSON with the server-level
// fields the ops side keys on (TestEndpointContract checks each row's entry).
func TestStatsEndpointShape(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 7, QueueDepth: 9})

	var raw map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/stats", &raw); code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	for _, key := range []string{"workers", "budget", "in_flight", "queue_cap", "queue_depth",
		"draining", "endpoints", "scheduler"} {
		if _, present := raw[key]; !present {
			t.Errorf("/stats missing %q", key)
		}
	}
	var budget, queueCap int
	if err := json.Unmarshal(raw["budget"], &budget); err != nil || budget != 7 {
		t.Errorf("/stats budget = %v (%v), want 7", budget, err)
	}
	if err := json.Unmarshal(raw["queue_cap"], &queueCap); err != nil || queueCap != 9 {
		t.Errorf("/stats queue_cap = %v (%v), want 9", queueCap, err)
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d at rest, want 0", s.InFlight())
	}
}

// waitFor polls cond until it holds or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
