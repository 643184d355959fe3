package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric of the benchmark. The two lists below are the
// same lists BENCHMARK.json carries (TestSpecMatchesRegistry keeps them
// equal); every workload emits every end-to-end metric on an untraced run
// and every per-layer metric on a traced run. A per-layer metric of a layer
// the workload does not pass through reads 0.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed relative worsening
}

// The three measured over the window are taken over its quiet slices
// (quiet.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// whole lists the whole-workload numbers that carry no regression bound
// (README, "Moved metrics"). Every run measures them; the result line of a
// traced run has them as the first per-layer metrics, and -mode run, agree
// and seeds read them off the untraced run.
var whole = []metricDef{
	lower("window.latency_ms_p50", "ms"),
	lower("window.latency_ms_p90", "ms"),
	higher("window.ops_per_s", "1/s"),
	lower("latency_ms_p99", "ms"),
	higher("speedup_x", "ratio"),
	lower("overhead_x", "ratio"),
	lower("failed_share", "ratio"),
}

var perLayer = slices.Concat(whole, layers)

var layers = []metricDef{
	higher("core.tasks_executed", "count"),
	lower("core.ns_per_task", "ns"),
	lower("core.steal_requests", "count"),
	higher("core.steal_hit_ratio", "ratio"),
	higher("core.combine_served_per_pass", "ratio"),
	lower("core.splits", "count"),
	higher("core.split_tasks_per_split", "ratio"),
	higher("core.ready_releases", "count"),
	lower("core.parks", "count"),
	lower("core.steal_probes_per_park", "ratio"),
	higher("core.epoch_skips", "count"),
	lower("core.submit_us_p50", "us"),
	lower("core.wait_us_p50", "us"),
	lower("core.roots_stolen_share", "ratio"),
	lower("core.shard_exec_imbalance", "ratio"),
	lower("core.cancelled", "count"),
	lower("core.panicked", "count"),

	higher("blas.gemm_gflops", "GFlop/s"),
	higher("blas.syrk_gflops", "GFlop/s"),
	higher("blas.trsm_gflops", "GFlop/s"),
	higher("blas.potrf_gflops", "GFlop/s"),
	higher("cholesky.gflops", "GFlop/s"),
	lower("cholesky.insert_ms_p50", "ms"),
	lower("cholesky.drain_ms_p50", "ms"),
	lower("cholesky.seq_ms_p50", "ms"),
	lower("cholesky.residual", "ratio"),
	lower("tile.fromdense_ms_p50", "ms"),

	lower("epx.repera_ms", "ms"),
	lower("epx.loopelm_ms", "ms"),
	lower("epx.cholesky_ms", "ms"),
	lower("epx.other_ms", "ms"),
	higher("epx.loop_speedup_x", "ratio"),
	lower("skyline.factor_ms_p50", "ms"),

	lower("server.handler_ms_p50", "ms"),
	lower("server.handler_ms_p99", "ms"),
	lower("server.transport_ms_p50", "ms"),
	lower("server.queue_wait_ms_p99", "ms"),
	lower("server.queued_share", "ratio"),
	lower("server.rejected_share", "ratio"),
	lower("server.shed_share", "ratio"),
	higher("server.batch_mean_size", "ratio"),
	higher("server.batched_share", "ratio"),
	lower("server.fib_tasks_per_request", "ratio"),
	lower("server.loop_tasks_per_request", "ratio"),
	lower("server.cholesky_tasks_per_request", "ratio"),
	lower("server.fib_ms_p50", "ms"),
	lower("server.loop_ms_p50", "ms"),
	lower("server.cholesky_ms_p50", "ms"),

	lower("latency.record_ns", "ns"),

	higher("loadgen.sent", "count"),
	higher("loadgen.ok", "count"),
	lower("loadgen.failed", "count"),
	higher("loadgen.achieved_rps", "1/s"),
	lower("loadgen.lag_ms_p50", "ms"),
	lower("loadgen.lag_ms_p99", "ms"),
	higher("loadgen.key_reuse_share", "ratio"),

	lower("go.peak_rss_mb", "MB"),
	lower("go.alloc_mb_per_s", "MB/s"),
	lower("go.allocs_per_op", "ratio"),
	lower("go.gc_cycles", "count"),
	lower("go.gc_pause_ms_total", "ms"),

	lower("trace.overhead_share", "ratio"),
}

// metrics collects what one run measured: a value per metric name and, for
// timings, the number of samples behind it.
type metrics struct {
	value map[string]float64
	count map[string]int
}

func newMetrics() *metrics {
	return &metrics{value: map[string]float64{}, count: map[string]int{}}
}

func (m *metrics) set(name string, v float64) { m.value[name] = v }

// timing records a quantile of n samples.
func (m *metrics) timing(name string, v float64, n int) {
	m.value[name] = v
	m.count[name] = n
}

// metricOut is one entry of the result line's "metrics" object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the metrics of defs. An end-to-end metric that no workload
// code set is a bug in the benchmark; a per-layer metric that was not set
// belongs to a layer this workload does not use and reads 0.
func (m *metrics) emit(defs []metricDef, required bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := m.value[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}
