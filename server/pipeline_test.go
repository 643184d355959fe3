package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi"
)

// get issues one GET and returns the status and the Retry-After header.
func get(t *testing.T, url string) (status int, retryAfter string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// jsonFields lists the JSON keys of a struct type's fields.
func jsonFields(v any) []string {
	var keys []string
	for t, i := reflect.TypeOf(v), 0; i < t.NumField(); i++ {
		keys = append(keys, strings.Split(t.Field(i).Tag.Get("json"), ",")[0])
	}
	return keys
}

// endpointStatsKeys is the wire contract of one /stats endpoints entry.
var endpointStatsKeys = []string{"requests", "ok", "rejected", "failed", "cancelled", "server_cancelled",
	"queued", "batches", "batched", "shed", "panic_retried",
	"task_executed", "task_cancelled", "task_panicked", "latency", "queue_wait"}

// TestEndpointContract ranges over the endpoint table and checks the
// contract the pipeline gives every row: parameter validation, admission,
// deadlines, shedding, drain and the /stats entry. A new row is covered by
// adding its inputs here.
func TestEndpointContract(t *testing.T) {
	inputs := map[string]struct {
		good string   // a small request below half the cap
		big  string   // above half the cap: shed while degraded
		bad  []string // each must be a 400
	}{
		"fib": {"n=10", "n=20",
			[]string{"n=31", "n=-1", "n=x", "timeout=bogus", "timeout=-1s", "affinity=-3", "affinity=x"}},
		"loop": {"n=1000", "n=40000",
			[]string{"n=999999999999", "n=60001", "n=-1", "timeout=0", "affinity=1.5"}},
		"cholesky": {"n=64&nb=32", "n=160&nb=32",
			[]string{"n=0", "n=257", "n=-4", "n=64&nb=0", "n=64&nb=65", "n=64&nb=x", "timeout=soon"}},
	}
	cfg := Config{MaxFib: 30, MaxLoop: 60_000, MaxChol: 256, Budget: 1, QueueDepth: 1,
		SLO: SLO{P99: time.Hour, Tick: time.Hour}}
	if got := jsonFields(EndpointStats{}); !slices.Equal(got, endpointStatsKeys) {
		t.Errorf("EndpointStats JSON keys = %q, want %q: a wire change must edit this test", got, endpointStatsKeys)
	}
	for _, proto := range builtinRows(cfg) {
		in, ok := inputs[proto.name]
		if !ok {
			t.Errorf("endpoint %s has no contract inputs", proto.name)
			continue
		}
		t.Run(proto.name, func(t *testing.T) {
			s, ts := newTestServer(t, cfg)
			ep := row(s, proto.name)
			base := ts.URL + "/" + ep.name + "?"

			for _, q := range in.bad {
				if code, _ := get(t, base+q); code != http.StatusBadRequest {
					t.Errorf("GET %s: status %d, want 400", q, code)
				}
			}
			if n := ep.stats.requests.Load(); n != 0 {
				t.Errorf("bad requests consumed %d admissions, want 0", n)
			}
			var rep reply
			if code := getJSON(t, base+in.good, &rep); code != http.StatusOK || !rep.OK || rep.Endpoint != ep.name {
				t.Fatalf("GET %s: status %d reply %+v, want a verified 200", in.good, code, rep)
			}

			// Budget and queue both full: 429 with a backoff hint.
			holdSlots(t, s, 1)
			parked, leave := context.WithCancel(context.Background())
			go s.adq.acquire(parked)
			waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })
			if code, ra := get(t, base+in.good); code != http.StatusTooManyRequests || ra == "" {
				t.Errorf("past budget+queue: status %d Retry-After %q, want 429 with a hint", code, ra)
			}
			leave()
			waitFor(t, time.Second, func() bool { return s.QueueDepth() == 0 })
			// Queued behind the held slot until its own deadline: 504.
			if code, _ := get(t, base+in.good+"&timeout=30ms"); code != http.StatusGatewayTimeout {
				t.Errorf("deadline while queued: status %d, want 504", code)
			}
			s.release()
			if got := ep.stats.requests.Load(); got != 1 {
				t.Errorf("requests = %d, want 1: the 429 and the 504 were never admitted", got)
			}

			// Degraded: the oversized request is shed, the small one served.
			ep.setDegraded(true)
			if code, ra := get(t, base+in.big); code != http.StatusServiceUnavailable || ra == "" {
				t.Errorf("oversized while degraded: status %d Retry-After %q, want 503 with a hint", code, ra)
			}
			if code, _ := get(t, base+in.good); code != http.StatusOK {
				t.Errorf("small while degraded: status %d, want 200", code)
			}
			ep.setDegraded(false)

			// The wire names are spelled out here, not read back from the struct
			// tags that produce them: a renamed key must fail this test.
			var raw struct {
				Endpoints map[string]map[string]json.RawMessage `json:"endpoints"`
			}
			getJSON(t, ts.URL+"/stats", &raw)
			for _, key := range endpointStatsKeys {
				if _, present := raw.Endpoints[ep.name][key]; !present {
					t.Errorf("/stats endpoints.%s missing %q", ep.name, key)
				}
			}
			for _, hist := range []string{"latency", "queue_wait"} {
				var sum map[string]json.RawMessage
				if err := json.Unmarshal(raw.Endpoints[ep.name][hist], &sum); err != nil {
					t.Errorf("/stats endpoints.%s.%s: %v", ep.name, hist, err)
				}
				for _, key := range []string{"count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"} {
					if _, present := sum[key]; !present {
						t.Errorf("/stats endpoints.%s.%s missing %q", ep.name, hist, key)
					}
				}
			}
			es := statsReply(t, ts.URL).Endpoints[ep.name]
			if es.Requests != 2 || es.OK != 2 || es.Rejected != 1 || es.Cancelled != 1 || es.Shed != 1 ||
				es.Queued != 1 || es.Latency.Count != 2 || es.QueueWait.Count != 1 {
				t.Errorf("/stats endpoints.%s = %+v, want 2 served, 1 rejected, 1 expired in queue, 1 shed", ep.name, es)
			}

			s.StartDrain()
			if code, _ := get(t, base+in.good); code != http.StatusServiceUnavailable {
				t.Errorf("while draining: status %d, want 503", code)
			}
		})
	}
}

// TestTableRowIsAnEndpoint appends a fourth row with a trivial attempt and
// checks it gets the whole pipeline — routing, admission, panic-retry,
// shedding, brownout supervision, a /stats entry — with no pipeline edit.
func TestTableRowIsAnEndpoint(t *testing.T) {
	var attempts atomic.Int64
	echo := &endpoint{name: "echo", defN: 1, maxN: 100, parse: parseSmall,
		attempt: func(s *Server, ctx context.Context, _ *endpoint, rq request) result {
			first := attempts.Add(1) == 1
			out := int64(-1)
			job := s.rt.SubmitCtx(ctx, func(*xkaapi.Proc) {
				if first {
					panic("echo: first attempt crashes")
				}
				out = int64(rq.n)
			})
			err := job.Wait()
			return result{value: out, stats: job.Stats(), err: err}
		},
		fill: fillValue(func(n int) int64 { return int64(n) })}

	cfg := Config{Runtime: xkaapi.New(xkaapi.WithWorkers(2)),
		Budget: 1, QueueDepth: -1, PanicRetries: 1, SLO: SLO{P99: 20 * time.Millisecond, Tick: time.Hour}}
	s := newServer(cfg, append(builtinRows(cfg), echo))
	url := startTestServer(t, s).URL

	var rep reply
	if code := getJSON(t, url+"/echo?n=7", &rep); code != http.StatusOK || !rep.OK || *rep.Result != 7 {
		t.Fatalf("GET /echo?n=7: status %d reply %+v, want a verified 7", code, rep)
	}
	if got := echo.stats.panicRetried.Load(); got != 1 || attempts.Load() != 2 {
		t.Errorf("panic_retried = %d after %d attempts, want the crashed first attempt retried once", got, attempts.Load())
	}
	if code, _ := get(t, url+"/echo?n=101"); code != http.StatusBadRequest {
		t.Errorf("GET /echo?n=101: status %d, want 400 above the row's cap", code)
	}
	holdSlots(t, s, 1)
	if code, _ := get(t, url+"/echo"); code != http.StatusTooManyRequests {
		t.Errorf("GET /echo past the budget: status %d, want 429", code)
	}
	s.release()

	record(s, echo, 50*time.Millisecond, 10)
	record(s, echo, 50*time.Millisecond, 10)
	sr := statsReply(t, url)
	if !sr.Degraded || !strings.Contains(strings.Join(sr.DegradedReasons, "\n"), "echo") {
		t.Fatalf("two windows over the SLO: degraded=%v reasons=%q, want echo degraded", sr.Degraded, sr.DegradedReasons)
	}
	if code, _ := get(t, url+"/echo?n=60"); code != http.StatusServiceUnavailable {
		t.Errorf("GET /echo?n=60 while degraded: status %d, want 503 (shed)", code)
	}
	es := statsReply(t, url).Endpoints["echo"]
	if es.Requests != 1 || es.OK != 1 || es.Rejected != 1 || es.Shed != 1 || es.PanicRetried != 1 || es.TaskPanicked == 0 {
		t.Errorf("/stats endpoints.echo = %+v, want 1 ok, 1 rejected, 1 shed, 1 retried panic", es)
	}
}

// TestLatencyClockStartsAtAdmission: the injected handler delay is time an
// admitted request waited, so it must be in the endpoint's latency
// histogram (which the brownout controller reads), while elapsed_ns keeps
// meaning submit → result.
func TestLatencyClockStartsAtAdmission(t *testing.T) {
	const delay = 20 * time.Millisecond
	inj := xkaapi.NewChaosInjector(xkaapi.ChaosScenario{Seed: 1,
		HandlerDelay: xkaapi.ChaosPulse{Prob: 1, For: delay}})
	s, ts := newTestServer(t, Config{Chaos: inj})

	var rep reply
	if code := getJSON(t, ts.URL+"/fib?n=1", &rep); code != http.StatusOK || !rep.OK {
		t.Fatalf("GET /fib?n=1: status %d ok=%v", code, rep.OK)
	}
	lat := row(s, "fib").stats.latency.Summary()
	if lat.MaxNS < delay.Nanoseconds() {
		t.Errorf("latency max = %v, want >= the %v injected after admission", time.Duration(lat.MaxNS), delay)
	}
	// One sample, so the mean is that request's exact latency: the delay is
	// inside it and outside elapsed_ns, however long the job took on this box.
	if gap := lat.MeanNS - rep.ElapsedNS; lat.Count != 1 || gap < delay.Nanoseconds() {
		t.Errorf("latency %v (%d samples) - elapsed_ns %v = %v, want >= the %v delay: elapsed_ns is submit → result only",
			time.Duration(lat.MeanNS), lat.Count, time.Duration(rep.ElapsedNS), time.Duration(gap), delay)
	}
}

// wave fires k simultaneous GETs of one URL and returns the replies, each of
// which must be a verified 200.
func wave(t *testing.T, url string, k int) []reply {
	t.Helper()
	reps := make([]reply, k)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := getJSON(t, url, &reps[i]); code != http.StatusOK || !reps[i].OK {
				t.Errorf("GET %s: status %d reply %+v, want a verified 200", url, code, reps[i])
			}
		}()
	}
	wg.Wait()
	return reps
}

// TestOnlySmallRequestsCoalesce ranges over the kernel rows with a window
// wide enough that simultaneous requests cannot miss each other, and checks
// the one fork of the pipeline by its counters: a wave at coalesceBelow and
// a wave of pinned small requests leave the batcher untouched, a wave just
// below coalesceBelow rides it.
func TestOnlySmallRequestsCoalesce(t *testing.T) {
	const clients = 4
	for _, proto := range builtinRows(Config{}) {
		if proto.kernel == nil {
			continue
		}
		t.Run(proto.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Budget: 2 * clients, BatchWindow: 100 * time.Millisecond})
			ep := row(s, proto.name)
			direct := func(query string) {
				t.Helper()
				for _, rep := range wave(t, ts.URL+"/"+ep.name+"?"+query, clients) {
					if rep.Batch != 0 {
						t.Errorf("%s: reply carries batch=%d, want a job of its own", query, rep.Batch)
					}
				}
				if b, n := ep.stats.batches.Load(), ep.stats.batched.Load(); b != 0 || n != 0 {
					t.Errorf("%s: batches=%d batched=%d, want 0: the request must not enter the batcher", query, b, n)
				}
			}
			direct(fmt.Sprintf("n=%d", ep.coalesceBelow))
			direct(fmt.Sprintf("n=%d&affinity=1", ep.coalesceBelow-1))

			riders := 0
			for _, rep := range wave(t, fmt.Sprintf("%s/%s?n=%d", ts.URL, ep.name, ep.coalesceBelow-1), clients) {
				if rep.Batch >= 2 {
					riders++
				}
			}
			if n := ep.stats.batched.Load(); n < 2 || riders < 2 {
				t.Errorf("n=%d: batched=%d and %d replies carry batch, want >= 2 of each inside a 100ms window",
					ep.coalesceBelow-1, n, riders)
			}
		})
	}
}

// TestFullSizeRequestsAreSeparateRoots: on a two-shard server two
// simultaneous full-size /loop requests are two roots the router spreads,
// so both shards execute tasks; coalesced they would be one root on one
// shard. Placement of a single wave can be upset by a cross-shard steal,
// so a few waves may be tried — each judged on its own counters.
func TestFullSizeRequestsAreSeparateRoots(t *testing.T) {
	s := New(Config{Workers: 2, Shards: 2, BatchWindow: 100 * time.Millisecond})
	ts := startTestServer(t, s)
	ep := row(s, "loop")
	executed := func() (per [2]int64) {
		s.rt.Wait()
		for i, ss := range s.rt.ShardStats() {
			per[i] = ss.Sched.Executed
		}
		return per
	}
	for range 5 {
		before := executed()
		wave(t, fmt.Sprintf("%s/loop?n=%d", ts.URL, 4*ep.coalesceBelow), 2)
		after := executed()
		if ep.stats.batches.Load() != 0 {
			t.Fatalf("full-size /loop requests coalesced: batches=%d", ep.stats.batches.Load())
		}
		if after[0] > before[0] && after[1] > before[1] {
			return
		}
	}
	t.Errorf("five waves of two full-size /loop requests never ran on both shards: executed per shard %v", executed())
}

// FuzzParseRequest feeds arbitrary query strings to every row's parser: no
// panic, and whatever is accepted is inside the row's bounds.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"", "n=31", "n=-1", "n=x", "timeout=bogus", "n=999999999999", "n=0",
		"n=17", "n=18", "n=999999", "n=1000000", "n=128&nb=32&verify=1", "n=64&nb=65", "n=10&timeout=40ms", "n=10&timeout=8760h",
		"n=5&affinity=7", "affinity=-1", "n=%zz", "n=1&n=2;nb", "timeout=-5s&nb=0",
	} {
		f.Add(seed)
	}
	const ceiling = 30 * time.Second
	rows := builtinRows(Config{})
	f.Fuzz(func(t *testing.T, query string) {
		q, _ := url.ParseQuery(query) // what net/http hands the pipeline: the pairs that did parse
		for _, ep := range rows {
			for _, limit := range []time.Duration{0, ceiling} {
				rq, err := ep.parse(ep, q, limit)
				if err != nil {
					continue
				}
				if rq.n < 0 || rq.n > ep.maxN {
					t.Errorf("%s accepted n=%d outside [0, %d] from %q", ep.name, rq.n, ep.maxN, query)
				}
				if rq.small != (rq.n < ep.coalesceBelow) {
					t.Errorf("%s parsed n=%d as small=%v against coalesceBelow %d from %q", ep.name, rq.n, rq.small, ep.coalesceBelow, query)
				}
				if ep.name == "cholesky" && (rq.nb < 1 || rq.nb > rq.n) {
					t.Errorf("cholesky accepted nb=%d outside [1, n=%d] from %q", rq.nb, rq.n, query)
				}
				// A deadline exists iff the server or the query set one; it is
				// positive and never above the server's ceiling.
				set := limit > 0 || q.Get("timeout") != ""
				if set != (rq.timeout > 0) || rq.timeout < 0 || limit > 0 && rq.timeout > limit {
					t.Errorf("%s accepted timeout %v under ceiling %v from %q", ep.name, rq.timeout, limit, query)
				}
			}
		}
	})
}
