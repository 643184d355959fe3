package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
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
		{line: "goos: linux", ok: false},
		{line: "PASS", ok: false},
		{line: "ok  \txkaapi/internal/core\t2.153s", ok: false},
		{line: "", ok: false},
	}
	for _, c := range cases {
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
