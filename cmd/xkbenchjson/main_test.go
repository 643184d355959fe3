package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

var parseCases = []struct {
	line string
	want BenchResult
	ok   bool
}{
	{
		line: "BenchmarkSpawnExecute-8   \t 8539915\t       152.3 ns/op",
		want: BenchResult{Name: "BenchmarkSpawnExecute-8", Iterations: 8539915, NsPerOp: 152.3},
		ok:   true,
	},
	{
		line: "BenchmarkForEach-8  1000  105 ns/op  24 B/op  1 allocs/op",
		want: BenchResult{Name: "BenchmarkForEach-8", Iterations: 1000, NsPerOp: 105,
			BytesPerOp: 24, AllocsPerOp: 1},
		ok: true,
	},
	{
		// A sub-benchmark that calls b.SetBytes: the name keeps its
		// "/n=128" and the MB/s column is skipped, not mistaken for B/op.
		line: "BenchmarkGemmNT/n=128-2  8094  161375 ns/op  2436.67 MB/s  16 B/op  2 allocs/op",
		want: BenchResult{Name: "BenchmarkGemmNT/n=128-2", Iterations: 8094, NsPerOp: 161375,
			BytesPerOp: 16, AllocsPerOp: 2},
		ok: true,
	},
	{
		// A b.ReportMetric column (the blas benchmarks' GFlop/s) between
		// MB/s and the memory columns is skipped like MB/s.
		line: "BenchmarkGemmNT/n=128-2  100  206995 ns/op  1899.64 MB/s  20.27 GFlop/s  0 B/op  0 allocs/op",
		want: BenchResult{Name: "BenchmarkGemmNT/n=128-2", Iterations: 100, NsPerOp: 206995},
		ok:   true,
	},
	{
		line: "BenchmarkPotrfLower  100  58584 ns/op  11.94 GFlop/s  16 B/op  2 allocs/op",
		want: BenchResult{Name: "BenchmarkPotrfLower", Iterations: 100, NsPerOp: 58584,
			BytesPerOp: 16, AllocsPerOp: 2},
		ok: true,
	},
	{line: "goos: linux", ok: false},
	{line: "PASS", ok: false},
	{line: "ok  \txkaapi/internal/core\t2.153s", ok: false},
	{line: "", ok: false},
	// strconv takes each of these numbers; no benchmark prints them.
	{line: "BenchmarkX -5 NaN ns/op -1 allocs/op", ok: false},
	{line: "BenchmarkX 0 5 ns/op", ok: false},
	{line: "BenchmarkX 5 -1 ns/op", ok: false},
	{line: "BenchmarkX 5 +Inf ns/op", ok: false},
	{line: "BenchmarkX 5 1 ns/op -8 B/op", ok: false},
}

func TestParseBenchLine(t *testing.T) {
	for _, c := range parseCases {
		got, ok := parseBenchLine(c.line)
		if ok != c.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if ok && got != c.want {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

// FuzzParseBenchLine: no input panics the parser, an accepted line has the
// shape of a benchmark result, and the result printed back as a line parses
// to itself.
func FuzzParseBenchLine(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.line)
	}
	// make bench-json output, one line per package (internal/core, internal/blas).
	f.Add("BenchmarkSpawnExecute \t    1000\t        63.97 ns/op\t       9 B/op\t       0 allocs/op")
	f.Add("BenchmarkGemmNT/n=64         \t     100\t     27761 ns/op\t3541.11 MB/s\t        18.92 GFlop/s\t       0 B/op\t       0 allocs/op")
	f.Fuzz(func(t *testing.T, line string) {
		r, ok := parseBenchLine(line)
		if !ok {
			return
		}
		if !strings.HasPrefix(r.Name, "Benchmark") || r.Iterations < 1 || !(r.NsPerOp >= 0) ||
			math.IsInf(r.NsPerOp, 1) || r.BytesPerOp < 0 || r.AllocsPerOp < 0 {
			t.Fatalf("accepted %q as %+v", line, r)
		}
		again := fmt.Sprintf("%s %d %s ns/op %d B/op %d allocs/op", r.Name, r.Iterations,
			strconv.FormatFloat(r.NsPerOp, 'g', -1, 64), r.BytesPerOp, r.AllocsPerOp)
		if r2, ok := parseBenchLine(again); !ok || r2 != r {
			t.Fatalf("%q parsed to %+v; printed back as %q it parses to %+v, %v", line, r, again, r2, ok)
		}
	})
}
