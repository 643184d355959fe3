// Command xkbenchjson converts `go test -bench` output on stdin into a
// BENCH_<n>.json artifact, so the benchmark trajectory of the runtime is
// recorded per PR (see `make bench-json`). The output file records, per
// benchmark: name, iterations, ns/op, and — when -benchmem was used —
// B/op and allocs/op, plus enough environment (go version, GOMAXPROCS,
// timestamp) to compare runs.
//
// The file is written to the current directory as BENCH_<n>.json where n
// is the smallest index not already present, or to -out when given.
//
// The diff mode compares two artifacts and prints a per-benchmark delta
// table (Markdown, so a CI job summary renders it): ns/op old → new with
// the percentage change, plus allocs/op when either side recorded them.
// Benchmarks present on only one side are listed as added or removed
// (GOMAXPROCS name suffixes like "-8" are stripped before matching, so
// artifacts from machines with different core counts still line up).
// `diff -latest` picks the pair itself: the two highest-numbered
// BENCH_<n>.json files, compared numerically so BENCH_10 sorts after
// BENCH_9 — this is what `make bench-diff` runs. The comparison is a
// report, not a gate — it always exits 0 unless an artifact cannot be
// read.
//
// The gate mode is the per-PR enforcement point: it reads the same bench
// output on stdin and checks each benchmark's allocs/op against the
// committed budgets in bench_gates.json (see `make bench-gate`). Budget
// overruns and missing gated benchmarks exit 1; ns/op regressions against
// the newest BENCH_<n>.json are advisory warnings only, because allocs/op
// is deterministic while container timing is not.
//
// Usage:
//
//	go test -bench=. -benchmem ./internal/core | xkbenchjson [-out FILE]
//	xkbenchjson diff OLD.json NEW.json
//	xkbenchjson diff -latest [-dir DIR]
//	go test -bench=. -benchtime=100x -benchmem ./internal/core | xkbenchjson gate -gates bench_gates.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one benchmark line.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchFile is the artifact schema.
type BenchFile struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Timestamp  string        `json:"timestamp"`
	Packages   []string      `json:"packages"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "gate" {
		os.Exit(runGate(os.Args[2:]))
	}
	out := flag.String("out", "", "output file (default: next free BENCH_<n>.json)")
	flag.Parse()

	bf := BenchFile{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // stay transparent: pass the raw output through
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			bf.Packages = append(bf.Packages, strings.TrimSpace(pkg))
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			bf.Benchmarks = append(bf.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "xkbenchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(bf.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "xkbenchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	path := *out
	if path == "" {
		path = nextBenchFile()
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkbenchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "xkbenchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("xkbenchjson: wrote %d benchmark(s) to %s\n", len(bf.Benchmarks), path)
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkSpawnExecute-8   1000000   152.3 ns/op   24 B/op   1 allocs/op
//
// A line no benchmark prints is rejected, since it feeds the allocation
// gate: fewer than one iteration, an ns/op that is negative, NaN or
// infinite, or a negative B/op or allocs/op.
func parseBenchLine(line string) (BenchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return BenchResult{}, false
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil || iters < 1 || !(ns >= 0) || math.IsInf(ns, 1) {
		return BenchResult{}, false
	}
	r := BenchResult{Name: f[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.BytesPerOp < 0 || r.AllocsPerOp < 0 {
		return BenchResult{}, false
	}
	return r, true
}

// nextBenchFile picks BENCH_<n>.json for the smallest n with no file yet.
func nextBenchFile() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
