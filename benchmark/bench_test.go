package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"xkaapi/server"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsAMeasuredValue(t *testing.T) {
	s := samples{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := s.p50(); got != 2 {
		t.Errorf("p50 = %v ms, want 2", got)
	}
	if got := s.ranked().ms(0.90); got != 4 {
		t.Errorf("p90 = %v ms, want 4", got)
	}
	if got := (samples{}).p50(); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	draws := func(seed uint64) []int {
		r := newRand(seed, 7)
		z := newZipf(hotKeyCount, hotZipfS)
		out := make([]int, 500)
		for i := range out {
			out[i] = z.draw(&r)
		}
		return out
	}
	if !reflect.DeepEqual(draws(1), draws(1)) {
		t.Error("Zipf draws differ for the same seed")
	}
	if reflect.DeepEqual(draws(1), draws(2)) {
		t.Error("Zipf draws are the same for different seeds")
	}
	top := 0
	for _, rank := range draws(3) {
		if rank < 8 {
			top++
		}
	}
	if top < 250 {
		t.Errorf("the 8 most popular of %d keys drew %d of 500 requests; Zipf(%v) should give them most", hotKeyCount, top, hotZipfS)
	}

	window := 2 * time.Second
	a, b := mixedSchedule(1, mixedRate, window), mixedSchedule(1, mixedRate, window)
	if !reflect.DeepEqual(a, b) {
		t.Error("the open-loop schedule differs for the same seed")
	}
	if reflect.DeepEqual(a, mixedSchedule(2, mixedRate, window)) {
		t.Error("the open-loop schedule is the same for different seeds")
	}
	want := mixedRate * window.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Errorf("%v arrivals in %v at %v/s, want about %v", n, window, mixedRate, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= window {
			t.Fatalf("arrival %d due at %v: not ordered inside the window", i, a[i].due)
		}
	}
}

// A server that stalls once must inflate the latency of the requests that
// fell due during the stall, because the open loop times each request from
// when it was due, not from when it got a connection.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 100 * time.Millisecond
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("n") == "11" {
			time.Sleep(stall)
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		fmt.Fprintf(w, `{"ok":true,"result":%d}`, server.FibSeq(n))
	}))
	defer fake.Close()

	// One request every 10 ms over one connection; the sixth stalls.
	var reqs []request
	for i := 0; i < 20; i++ {
		n := 10
		if i == 5 {
			n = 11
		}
		q := newRequest(kindFib, n, 0, false)
		q.due = time.Duration(i) * 10 * time.Millisecond
		reqs = append(reqs, q)
	}
	load := &httpLoad{base: fake.URL, client: fake.Client()}
	recs := load.openLoop(reqs, 1)
	for i, rec := range recs {
		if !rec.ok {
			t.Fatalf("request %d failed: %s", i, rec.why)
		}
	}
	if d := recs[4].done - recs[4].due; d > stall/2 {
		t.Errorf("request before the stall took %v", d)
	}
	// Request 6 was due 10 ms into the stall: it waited out the other 90.
	if d := recs[6].done - recs[6].due; d < stall-30*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want about %v", d, stall-10*time.Millisecond)
	}
	if lag := recs[6].sent - recs[6].due; lag < stall-30*time.Millisecond {
		t.Errorf("request due during the stall has lag %v, want about %v", lag, stall-10*time.Millisecond)
	}
	// Its own round trip was short: the time is the wait, not the service.
	if rt := recs[6].done - recs[6].sent; rt > stall/2 {
		t.Errorf("request due during the stall spent %v on its own round trip", rt)
	}
}

// A disturbance that slows most of the window must not move the bounded
// metrics: they come from the quietest fifth of the slices.
func TestQuietSlices(t *testing.T) {
	const ms = time.Millisecond
	window := 10 * time.Second
	var begin, lat samples
	for at := time.Duration(0); at < window; at += 10 * ms {
		d := 9 * ms // disturbed
		if s := int(at / time.Second); s == 3 || s == 7 {
			d = 2 * ms
		}
		begin, lat = append(begin, at), append(lat, d)
	}
	begin, lat = append(begin, window), append(lat, 9*ms) // began as the window closed: last slice
	slices := timeSlices(window, begin, lat, 5*ms)
	if len(slices) != 10 || len(slices[0].lat) != 100 || len(slices[9].lat) != 101 {
		t.Fatalf("%d slices, first of %d operations, last of %d; want 10, 100, 101", len(slices), len(slices[0].lat), len(slices[9].lat))
	}
	if got := slices[9].busy; got != time.Second+9*ms {
		t.Errorf("the last slice lasts %v, want 1.009s: its last operation began as it closed", got)
	}
	slices[5] = slice{busy: time.Second} // every operation of it failed
	m := newMetrics()
	endToEndMetrics(m, slices)
	for name, want := range map[string]float64{
		"latency_ms_p50":        2,
		"latency_ms_p90":        2,
		"ops_per_s":             100, // 200 operations within the limit in 2 s
		"window.latency_ms_p50": 9,
		"window.ops_per_s":      200 / 10.009, // the same 200; the last slice ends with its last operation
	} {
		if got := m.value[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := m.count["latency_ms_p50"]; n != 200 {
		t.Errorf("the quiet pool has %d operations, want the 200 of slices 3 and 7", n)
	}
}

func TestKeyReuseShare(t *testing.T) {
	recs := []opRecord{{key: "a", sent: 1}, {key: "b", sent: 2}, {key: "a", sent: 3}, {key: "a", sent: 4}}
	if got := keyReuseShare(recs); got != 0.5 {
		t.Errorf("keyReuseShare = %v, want 0.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "loadgen.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "transport.roundtrip", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "transport.roundtrip", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Op: 1, Name: "transport.roundtrip", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Op: 1, Name: "server.ServeHTTP", Start: 25, End: 45},     // grandchild of span 1
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Layer] = l
	}
	// Span 1: 100 long, children cover [10,50] and [90,100] = 50.
	if l := got["loadgen"]; l.SelfMS != 50e-6 || l.TotalMS != 100e-6 || l.Spans != 1 {
		t.Errorf("loadgen = %+v, want self 50 ns of 100 ns in 1 span", l)
	}
	// Spans 2, 3, 4: 20 + 30 + 30 long; only span 3 has a child, 20 long.
	if l := got["transport"]; math.Abs(l.SelfMS-60e-6) > 1e-12 || l.Spans != 3 {
		t.Errorf("transport = %+v, want self 60 ns in 3 spans", l)
	}
	if l := got["server"]; l.SelfMS != 20e-6 {
		t.Errorf("server = %+v, want self 20 ns", l)
	}
}

// BENCHMARK.json at the root of the repository and the lists in metrics.go
// say the same thing.
func TestSpecMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n spec %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n spec %v\n code %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames[:listedWorkloads]) {
		t.Errorf("workloads: spec %v, code %v", names, workloadNames[:listedWorkloads])
	}
}

// TestSmoke runs all six workloads at toy sizes with 200 ms windows, traced,
// and checks that every named metric comes out: each end-to-end metric from
// every workload, positive; each per-layer metric finite from every workload
// and measured by at least one.
func TestSmoke(t *testing.T) {
	measured := map[string]bool{}
	for _, name := range workloadNames {
		cfg := config{
			seed:   1,
			window: 200 * time.Millisecond,
			warm:   20 * time.Millisecond,
			rounds: 1,
			probe:  2 * time.Millisecond,
			setups: 1,
			p:      workerCount(),
			toy:    true,
			tr:     newTracer(),
			outDir: t.TempDir(),
		}
		out, err := execute(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %s", name, out.attempted, out.failed, out.firstFailure)
		}
		if v := out.m.value["failed_share"]; v != 0 {
			t.Errorf("%s: failed_share = %v", name, v)
		}
		e2e, err := out.m.emit(endToEnd, true)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for metric, v := range e2e {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, metric, v.Value)
			}
		}
		if _, err := out.m.emit(perLayer, false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for metric := range out.m.value {
			measured[metric] = true
		}
		if len(out.layers) == 0 {
			t.Errorf("%s: no per-layer self times", name)
		}
		if st, err := os.Stat(cfg.outDir + "/trace-" + name + ".jsonl"); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty: %v", name, err)
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
}

// TestMixedCapacity measures what mixedRate is calibrated against: the rate
// the mixed traffic reaches in a closed loop of mixedConns callers. It is a
// measurement, not a check, and takes ten seconds:
//
//	XKBENCH_CAPACITY=1 go test -run TestMixedCapacity -v
func TestMixedCapacity(t *testing.T) {
	if os.Getenv("XKBENCH_CAPACITY") == "" {
		t.Skip("set XKBENCH_CAPACITY=1 to measure")
	}
	p := workerCount()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	cfg := config{seed: 1, window: 10 * time.Second, warm: warmUp, p: p}
	w := &serveWorkload{cfg: cfg, mixed: true, clients: mixedConns, limit: mixedLimit}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.measure(); err != nil {
		t.Fatal(err)
	}
	m := newMetrics()
	w.report(m)
	if _, failed, why := w.tally(); failed > 0 {
		t.Fatalf("%d requests failed: %s", failed, why)
	}
	capacity := m.value["window.ops_per_s"]
	t.Logf("P = %d: capacity %.0f req/s; mixedRate %.0f is %.0f %% of it", p, capacity, mixedRate, 100*mixedRate/capacity)
}

// One run at full size prints its result as the last line, with exactly the
// keys the contract names.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "submit_storm", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
	var ms map[string]metricOut
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(ms), len(endToEnd))
	}
	// -full adds the whole-workload metrics, measured on the same untraced run.
	stdout.Reset()
	if code := run(append(args, "--full"), &stdout, &stderr); code != 0 {
		t.Fatalf("-full: exit %d: %s", code, stderr.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var full resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &full); err != nil {
		t.Fatal(err)
	}
	if _, ok := full.Metrics["latency_ms_p99"]; !ok || len(full.Metrics) != len(endToEnd)+len(whole) {
		t.Errorf("-full printed %d metrics, want the end-to-end and the whole-workload ones", len(full.Metrics))
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
