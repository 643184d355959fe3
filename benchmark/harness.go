package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xkaapi"
)

// config is what one run of one workload is given.
type config struct {
	seed   uint64
	window time.Duration // measured window
	warm   time.Duration // warm-up inside each set-up of a request workload
	rounds int           // warm-up inside each set-up of a compute workload (warmRounds)
	probe  time.Duration // budget of each single-layer probe (traced runs)
	setups int           // set-ups per run; setup_s is their median
	p      int           // worker count and client count: min(nproc, 4)
	toy    bool          // unit-test sizes
	tr     *tracer       // nil on an untraced run
	outDir string        // where a traced run writes its spans
}

// Fixed run parameters (README, "Fixed parameters").
const (
	warmUp      = 500 * time.Millisecond
	probeBudget = 200 * time.Millisecond
	setupReps   = 3
)

func workerCount() int { return min(runtime.NumCPU(), 4) }

// workload is one of the six named workloads. setup builds the inputs,
// starts the pools or the server and warms them up; it is called several
// times per run (with close in between) so that setup_s is a median.
// measure runs the fixed-duration window and verifies every output.
type workload interface {
	setup() error
	measure() error
	report(m *metrics)
	close()
	tally() (attempted, failed int64, firstFailure string)
}

// counts is the attempted / failed accounting every workload embeds.
type counts struct {
	attempted, failed int64
	first             string
}

func (c *counts) fail(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

func (c *counts) tally() (int64, int64, string) { return c.attempted, c.failed, c.first }

// report sets the load generator's own counts for a window of the given
// length.
func (c *counts) report(m *metrics, elapsed time.Duration) {
	m.set("loadgen.sent", float64(c.attempted))
	m.set("loadgen.ok", float64(c.attempted-c.failed))
	m.set("loadgen.failed", float64(c.failed))
	m.set("loadgen.achieved_rps", ratio(float64(c.attempted), elapsed.Seconds()))
}

// traceOverhead compares, inside one traced run, the operations that
// recorded spans with the ones that did not.
func traceOverhead(m *metrics, traced, plain samples) {
	m.set("trace.overhead_share", ratio(traced.p50()-plain.p50(), plain.p50()))
}

// workloadNames are the workloads run.sh runs. BENCHMARK.json lists the
// first listedWorkloads of them: its driver makes 22 runs of each listed
// workload inside an hour, which leaves room for four windows of 30 s and
// not for six (README, "Workloads").
var workloadNames = []string{
	"fib_forkjoin", "cholesky_dataflow", "serve_mixed_open", "serve_hot_closed",
	"epx_loops", "submit_storm",
}

const listedWorkloads = 4

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "fib_forkjoin":
		return newFibWorkload(cfg), nil
	case "cholesky_dataflow":
		return newCholWorkload(cfg), nil
	case "epx_loops":
		return newEpxWorkload(cfg), nil
	case "submit_storm":
		return newStormWorkload(cfg), nil
	case "serve_mixed_open", "serve_hot_closed":
		return newServeWorkload(cfg, name), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// outcome is the result of one run.
type outcome struct {
	m                 *metrics
	attempted, failed int64
	firstFailure      string
	layers            []layerTime // traced runs: per-layer self time
}

// execute runs one workload once: set-up (several times), the measured
// window, the report. On a traced run it also runs the single-layer probes
// and writes the spans to <outDir>/trace-<workload>.jsonl.
func execute(name string, cfg config) (*outcome, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m := newMetrics()
	if cfg.tr != nil {
		if err := runProbes(name, cfg, m); err != nil {
			w.close()
			return nil, err
		}
	}
	before := readProc()
	t0 := time.Now()
	if err := w.measure(); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(t0)
	after := readProc()

	w.report(m)
	w.close() // before the tally: a server that loses a job while draining fails the run
	m.timing("setup_s", medianOf(setups), len(setups))
	out := &outcome{m: m}
	out.attempted, out.failed, out.firstFailure = w.tally()
	m.set("failed_share", ratio(float64(out.failed), float64(out.attempted)))
	procMetrics(m, before, after, elapsed, out.attempted)

	if cfg.tr != nil {
		out.layers = selfTimes(cfg.tr.spans)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace directory: %w", err)
		}
		if err := cfg.tr.writeJSONL(filepath.Join(cfg.outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poolSnap is a reading of a pool's public counters.
type poolSnap struct {
	st     xkaapi.Stats
	shards []xkaapi.ShardStats
}

func snapPool(rt *xkaapi.Runtime) poolSnap {
	return poolSnap{st: rt.Stats(), shards: rt.ShardStats()}
}

// coreMetrics turns the change of a pool's counters over the window into
// the core.* metrics. busy is the wall time the pool was in use (seconds),
// workers its worker count, roots the root jobs submitted in the window.
func coreMetrics(m *metrics, a, b poolSnap, workers int, busy, roots float64) {
	d := func(before, after int64) float64 { return float64(after - before) }
	executed := d(a.st.Executed, b.st.Executed)
	stealReq := d(a.st.StealRequests, b.st.StealRequests)
	splits := d(a.st.Splits, b.st.Splits)
	parks := d(a.st.Parks, b.st.Parks)
	m.set("core.tasks_executed", executed)
	m.set("core.ns_per_task", ratio(float64(workers)*busy*1e9, executed))
	m.set("core.steal_requests", stealReq)
	m.set("core.steal_hit_ratio", ratio(d(a.st.StealHits, b.st.StealHits), stealReq))
	m.set("core.combine_served_per_pass", ratio(d(a.st.CombineServed, b.st.CombineServed), d(a.st.Combines, b.st.Combines)))
	m.set("core.splits", splits)
	m.set("core.split_tasks_per_split", ratio(d(a.st.SplitTasks, b.st.SplitTasks), splits))
	m.set("core.ready_releases", d(a.st.ReadyReleases, b.st.ReadyReleases))
	m.set("core.parks", parks)
	m.set("core.steal_probes_per_park", ratio(d(a.st.StealProbes, b.st.StealProbes), parks))
	m.set("core.epoch_skips", d(a.st.EpochSkips, b.st.EpochSkips))
	m.set("core.cancelled", d(a.st.Cancelled, b.st.Cancelled))
	m.set("core.panicked", d(a.st.Panicked, b.st.Panicked))

	var stolen, sum, most float64
	for i := range b.shards {
		ex := float64(b.shards[i].Sched.Executed - a.shards[i].Sched.Executed)
		stolen += float64(b.shards[i].StolenIn - a.shards[i].StolenIn)
		sum += ex
		most = max(most, ex)
	}
	m.set("core.roots_stolen_share", ratio(stolen, roots))
	m.set("core.shard_exec_imbalance", ratio(most*float64(len(b.shards)), sum))
}

// closePools closes the pools that are open and forgets them, so close is
// safe to call after a failed or repeated set-up.
func closePools(pools ...**xkaapi.Runtime) {
	for _, p := range pools {
		if *p != nil {
			(*p).Close()
			*p = nil
		}
	}
}

// procSnap is a reading of the process's memory counters.
type procSnap struct{ ms runtime.MemStats }

func readProc() procSnap {
	var p procSnap
	runtime.ReadMemStats(&p.ms)
	return p
}

func procMetrics(m *metrics, a, b procSnap, elapsed time.Duration, ops int64) {
	const mb = 1 << 20
	m.set("go.peak_rss_mb", peakRSSMB())
	m.set("go.alloc_mb_per_s", ratio(float64(b.ms.TotalAlloc-a.ms.TotalAlloc)/mb, elapsed.Seconds()))
	m.set("go.allocs_per_op", ratio(float64(b.ms.Mallocs-a.ms.Mallocs), float64(ops)))
	m.set("go.gc_cycles", float64(b.ms.NumGC-a.ms.NumGC))
	m.set("go.gc_pause_ms_total", float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs)/1e6)
}

// peakRSSMB reads VmHWM, the process's peak resident set, 0 where /proc
// does not have it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
