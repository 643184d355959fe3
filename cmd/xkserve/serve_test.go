package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xkaapi/server"
)

// serveEnv marks a re-executed test binary as the server: TestMain then
// runs serve with the process's arguments instead of the tests.
const serveEnv = "XKSERVE_TEST_SERVE"

func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(runServe(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// serve starts `xkserve serve` with args on a port the kernel picks — this
// test binary re-executed — and returns its base URL and a stop function
// that sends SIGTERM and returns the exit code and the exit report.
func serve(t *testing.T, args ...string) (url string, stop func() (int, string)) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	out := bufio.NewReader(pipe)
	banner, _ := out.ReadString('\n')
	addr, ok := strings.CutPrefix(banner, "xkserve: serving on ")
	if !ok {
		t.Fatalf("serve printed %q, want the address it bound", banner)
	}
	return "http://" + strings.Fields(addr)[0], func() (int, string) {
		defer time.AfterFunc(time.Minute, func() { cmd.Process.Kill() }).Stop() // a hung drain
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		report, _ := io.ReadAll(out) // Wait may run only once stdout is drained
		cmd.Wait()
		t.Logf("serve exit report:\n%s", report)
		return cmd.ProcessState.ExitCode(), string(report)
	}
}

// counter reads key=N from the report line that starts with prefix; -1
// when the line or the key is missing.
func counter(report, prefix, key string) int64 {
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			if m := regexp.MustCompile(`\b` + key + `=(\d+)`).FindStringSubmatch(rest); m != nil {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				return n
			}
		}
	}
	return -1
}

// checkDrain holds serve's exit to a clean drain: exit 0, "drained
// cleanly", and spawned == executed + cancelled in the report.
func checkDrain(t *testing.T, code int, report string) {
	t.Helper()
	const line = "xkserve: scheduler "
	spawned, executed, cancelled := counter(report, line, "spawned"), counter(report, line, "executed"), counter(report, line, "cancelled")
	if code != 0 || !strings.Contains(report, "xkserve: drained cleanly") {
		t.Errorf("serve exited %d, want 0 and \"drained cleanly\"", code)
	}
	if spawned <= 0 || executed < 0 || cancelled < 0 || spawned != executed+cancelled {
		t.Errorf("exit report spawned=%d executed=%d cancelled=%d, want spawned > 0 and balanced", spawned, executed, cancelled)
	}
}

// query is one request and the result it must carry (-1: the server
// checks it, as the Cholesky residual).
type query struct {
	path string
	want int64
}

// load runs clients that each send up to jobs requests, round robin over
// qs, and stop at the first answer that is not a verified 200. It returns
// the number of verified 200s and why each client that stopped early
// stopped: "status N", "unverified ...", or the transport error.
func load(url string, clients, jobs int, qs ...query) (ok int, stops []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				stop := fetch(url, qs[(c+j)%len(qs)])
				mu.Lock()
				if stop == "" {
					ok++
				} else {
					stops = append(stops, stop)
				}
				mu.Unlock()
				if stop != "" {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ok, stops
}

// fetch sends q and returns "" for a verified 200, else why not.
func fetch(url string, q query) string {
	resp, err := http.Get(url + q.path)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status %d", resp.StatusCode)
	}
	var rep struct {
		OK     bool   `json:"ok"`
		Result *int64 `json:"result"`
	}
	if json.NewDecoder(resp.Body).Decode(&rep) != nil || !rep.OK || q.want >= 0 && (rep.Result == nil || *rep.Result != q.want) {
		return "unverified " + q.path
	}
	return ""
}

// TestServeDrainsOnSIGTERM sends SIGTERM while a request is in flight: the
// clients see verified 200s until the drain refuses them (a 503 or a
// closed connection), and serve exits 0 with balanced counters.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	url, stop := serve(t, "-workers", "2", "-budget", "4")
	type result struct {
		ok    int
		stops []string
	}
	res := make(chan result, 1)
	go func() {
		ok, stops := load(url, 6, 1<<30, query{"/cholesky?n=128&nb=32&verify=1", -1})
		res <- result{ok, stops}
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		var st server.StatsReply
		if resp, err := http.Get(url + "/stats"); err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if st.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no request in flight within 30s")
		}
	}
	code, report := stop()
	r := <-res
	for _, stop := range r.stops {
		if strings.HasPrefix(stop, "status ") && stop != "status 503" || strings.HasPrefix(stop, "unverified") {
			t.Errorf("a client stopped on %q, want only a 503 or a closed connection from the drain", stop)
		}
	}
	if r.ok == 0 {
		t.Error("no verified 200: the drain dropped the request in flight at SIGTERM")
	}
	checkDrain(t, code, report)
}

// TestServeChaosShards runs a four-shard server with seeded worker stalls
// and task panics and a panic-retry budget that must absorb every crash:
// each request of a mixed load answers a verified 200, the chaos line of
// the exit report shows the panics fired, every shard reports its line,
// and the drain balances.
func TestServeChaosShards(t *testing.T) {
	url, stop := serve(t, "-shards", "4", "-workers", "8", "-budget", "128",
		"-chaos", "stall+panic:7", "-panic-retries", "20")
	// Seed 7's draws are the same in every run: its first task panic is the
	// 870th task body, and the -short load runs about 1 700.
	clients, jobs := 12, 400
	if testing.Short() {
		clients, jobs = 4, 60
	}
	ok, stops := load(url, clients, jobs,
		query{"/fib?n=6", server.FibSeq(6)},
		query{"/loop?n=3000000", 3_000_000 * (3_000_000 - 1) / 2},
		query{"/cholesky?n=64&nb=32&verify=1", -1})
	if len(stops) > 0 {
		t.Errorf("%d clients stopped early (first on %q), want %d verified 200s", len(stops), stops[0], clients*jobs)
	}
	code, report := stop()
	checkDrain(t, code, report)
	if n := counter(report, "xkserve: chaos counts: ", "task_panics"); n <= 0 {
		t.Errorf("chaos counts task_panics=%d over %d requests, want > 0", n, ok)
	}
	for i := range 4 {
		if counter(report, fmt.Sprintf("xkserve: shard %d/4 ", i), "executed") < 0 {
			t.Errorf("exit report has no line for shard %d/4", i)
		}
	}
	// Every request got a 200, so every failed job was a crashed attempt
	// that a retry absorbed.
	retried := counter(report, "xkserve: panic-retried ", "attempts")
	if failed := failedJobs(report); len(stops) == 0 && failed != retried {
		t.Errorf("exit report counts %d failed jobs and %d panic-retried attempts, want them equal when every request got a 200", failed, retried)
	}
}

// failedJobs reads the lifetime failed-job count of the exit report: 0
// when the report has no lifetime failure line.
func failedJobs(report string) int64 {
	m := regexp.MustCompile(`xkserve: lifetime job failures: core: (\d+) job\(s\) failed`).FindStringSubmatch(report)
	if m == nil {
		return 0
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}
