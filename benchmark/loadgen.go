package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/server"
)

// Headers a traced run adds so the benchmark's handler wrapper can match
// its timing to the client's operation and span.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// requestTimeout is the client's patience; a request that exceeds it is a
// failure.
const requestTimeout = 5 * time.Second

// opRecord is the client's view of one request. Times are offsets from the
// start of the window.
type opRecord struct {
	kind      int
	key       string
	due       time.Duration // when it should have been sent (closed loop: when it was)
	sent      time.Duration
	done      time.Duration
	ok        bool // status 200 and the reply verified
	traced    bool // recorded spans
	why       string
	handlerNS int64 // traced runs: time inside Server.ServeHTTP
}

// httpLoad generates load against base from inside the benchmark process.
type httpLoad struct {
	base   string
	client *http.Client
	tr     *tracer       // nil: no spans, no headers
	timed  *timedHandler // nil on an untraced run
}

// serveReply is the part of the server's JSON reply the client verifies.
type serveReply struct {
	Result   *int64   `json:"result"`
	Residual *float64 `json:"residual"`
	OK       bool     `json:"ok"`
	Error    string   `json:"error"`
}

// do sends one request and verifies the reply: /fib against the table,
// /loop against n(n-1)/2, /cholesky by the server's ok and, with verify=1,
// a residual below 1e-10. A non-200, a transport error, a timeout or a
// wrong reply is a failure. due is the offset from t0 at which the request
// should leave; a closed loop passes a negative one, meaning "now".
func (l *httpLoad) do(q request, op uint64, t0 time.Time, due time.Duration) opRecord {
	rec := opRecord{kind: q.kind, key: q.path, due: due}
	o := traceOp(l.tr, op, op%2 == 1)
	rec.traced = o.on()
	root := o.begin(0, "loadgen.request")
	defer root.end()

	hreq, err := http.NewRequest(http.MethodGet, l.base+q.path, nil)
	if err != nil {
		rec.why = err.Error()
		return rec
	}
	rt := o.begin(root.id, "transport.roundtrip")
	if l.tr != nil {
		hreq.Header.Set(opHeader, strconv.FormatUint(op, 10))
		hreq.Header.Set(spanHeader, strconv.FormatUint(rt.id, 10))
	}
	rec.sent = time.Since(t0)
	if due < 0 {
		rec.due = rec.sent
	}
	resp, err := l.client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rt.end()
	rec.done = time.Since(t0)
	if l.timed != nil {
		rec.handlerNS = l.timed.take(op)
	}
	if err != nil {
		rec.why = err.Error()
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.why = fmt.Sprintf("%s: status %d", q.path, resp.StatusCode)
		return rec
	}
	var rep serveReply
	if err := json.Unmarshal(body, &rep); err != nil {
		rec.why = fmt.Sprintf("%s: reply: %v", q.path, err)
		return rec
	}
	rec.ok, rec.why = verifyReply(q, rep)
	return rec
}

func verifyReply(q request, rep serveReply) (bool, string) {
	if !rep.OK {
		return false, fmt.Sprintf("%s: server says not ok: %s", q.path, rep.Error)
	}
	switch q.kind {
	case kindFib:
		if rep.Result == nil || *rep.Result != server.FibSeq(q.n) {
			return false, fmt.Sprintf("%s: wrong result", q.path)
		}
	case kindLoop:
		if rep.Result == nil || *rep.Result != int64(q.n)*int64(q.n-1)/2 {
			return false, fmt.Sprintf("%s: wrong result", q.path)
		}
	case kindChol:
		if q.verify && (rep.Residual == nil || !(*rep.Residual < 1e-10)) {
			return false, fmt.Sprintf("%s: residual missing or too large", q.path)
		}
	}
	return true, ""
}

// openLoop sends reqs on their schedule over conns keep-alive connections,
// whatever the server's speed: each sender takes the next request in due
// order and sleeps until it is due. When every sender is busy the request
// leaves late, and the lateness counts, because latency runs from the due
// time.
func (l *httpLoad) openLoop(reqs []request, conns int) []opRecord {
	recs := make([]opRecord, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				time.Sleep(time.Until(t0.Add(reqs[i].due)))
				recs[i] = l.do(reqs[i], uint64(i), t0, reqs[i].due)
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs clients callers for d: each draws its next request from
// its own stream and sends it only after the previous reply arrived, so a
// slower server receives less load.
func (l *httpLoad) closedLoop(clients int, d time.Duration, draw func(client int) func() request) []opRecord {
	per := make([][]opRecord, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := draw(c)
			for i := 0; time.Since(t0) < d; i++ {
				op := uint64(c) + uint64(i)*uint64(clients)
				per[c] = append(per[c], l.do(next(), op, t0, -1))
			}
		}(c)
	}
	wg.Wait()
	var recs []opRecord
	for _, p := range per {
		recs = append(recs, p...)
	}
	return recs
}

// keyReuseShare is the share of requests whose key an earlier request of
// the window already carried.
func keyReuseShare(recs []opRecord) float64 {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return recs[order[a]].sent < recs[order[b]].sent })
	seen := map[string]bool{}
	reused := 0
	for _, i := range order {
		if seen[recs[i].key] {
			reused++
		}
		seen[recs[i].key] = true
	}
	return ratio(float64(reused), float64(len(recs)))
}

// timedHandler is the benchmark-owned wrapper around Server.ServeHTTP on a
// traced run: it times every workload request and records a span for the
// ones the client traces.
type timedHandler struct {
	next http.Handler
	tr   *tracer

	mu  sync.Mutex
	dur map[uint64]int64 // op -> nanoseconds inside next
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	opText := r.Header.Get(opHeader)
	if opText == "" {
		h.next.ServeHTTP(w, r) // warm-up or /stats
		return
	}
	op, _ := strconv.ParseUint(opText, 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	s := traceOp(h.tr, op, parent != 0).begin(parent, "server.ServeHTTP")
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	s.end()
	h.mu.Lock()
	h.dur[op] = d.Nanoseconds()
	h.mu.Unlock()
}

// take returns and forgets the handler time of op.
func (h *timedHandler) take(op uint64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.dur[op]
	delete(h.dur, op)
	return d
}
