package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEvalGatesBudgets(t *testing.T) {
	gates := &GateFile{AllocsPerOp: map[string]int64{
		"BenchmarkFleetSubmit": 2,
		"BenchmarkForEach":     0,
		"BenchmarkGone":        0,
	}}
	results := []BenchResult{
		{Name: "BenchmarkFleetSubmit-8", AllocsPerOp: 3, NsPerOp: 400},
		{Name: "BenchmarkForEach-8", AllocsPerOp: 0, NsPerOp: 21000},
		{Name: "BenchmarkUngated-8", AllocsPerOp: 99, NsPerOp: 5},
	}
	failures, warnings := evalGates(gates, results, nil)
	if len(warnings) != 0 {
		t.Errorf("warnings = %v, want none (no baseline)", warnings)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want 2 (budget overrun + missing benchmark)", failures)
	}
	if !strings.Contains(failures[0], "BenchmarkFleetSubmit") || !strings.Contains(failures[0], "3 allocs/op, budget 2") {
		t.Errorf("overrun failure = %q", failures[0])
	}
	if !strings.Contains(failures[1], "BenchmarkGone") || !strings.Contains(failures[1], "missing") {
		t.Errorf("missing-benchmark failure = %q", failures[1])
	}
}

func TestEvalGatesPasses(t *testing.T) {
	gates := &GateFile{AllocsPerOp: map[string]int64{"BenchmarkForEach": 1, "BenchmarkGemmNT/n=128": 0}}
	results := []BenchResult{
		{Name: "BenchmarkForEach-4", AllocsPerOp: 1},
		{Name: "BenchmarkGemmNT/n=128-4"}, // a sub-benchmark is gated under its full name
	}
	if failures, _ := evalGates(gates, results, nil); len(failures) != 0 {
		t.Errorf("failures = %v, want none (at budget is within budget)", failures)
	}
}

func TestEvalGatesTimingAdvisory(t *testing.T) {
	gates := &GateFile{
		AllocsPerOp: map[string]int64{"BenchmarkSpawnExecute": 0},
		NsWarnPct:   25,
	}
	results := []BenchResult{
		{Name: "BenchmarkSpawnExecute-8", NsPerOp: 100, AllocsPerOp: 0, Iterations: 1000000},
		{Name: "BenchmarkForEach-8", NsPerOp: 21000, Iterations: 5000},
	}
	baseline := []BenchResult{
		{Name: "BenchmarkSpawnExecute", NsPerOp: 70, Iterations: 2000000}, // +42.9%: warn
		{Name: "BenchmarkForEach", NsPerOp: 20000, Iterations: 6000},      // +5%: quiet
	}
	failures, warnings := evalGates(gates, results, baseline)
	if len(failures) != 0 {
		t.Errorf("failures = %v, want none: timing regressions must not gate", failures)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "BenchmarkSpawnExecute") {
		t.Errorf("warnings = %v, want one about BenchmarkSpawnExecute", warnings)
	}
}

func TestEvalGatesTimingSkipsIncomparableRuns(t *testing.T) {
	gates := &GateFile{
		AllocsPerOp: map[string]int64{"BenchmarkSpawnExecute": 0},
		NsWarnPct:   25,
	}
	// A -benchtime=100x smoke against a 1s baseline: per-op time is warm-up
	// dominated and reads far slower, but the iteration counts differ by
	// orders of magnitude, so the advisory check must stay quiet.
	results := []BenchResult{{Name: "BenchmarkSpawnExecute-8", NsPerOp: 1100, Iterations: 100}}
	baseline := []BenchResult{{Name: "BenchmarkSpawnExecute", NsPerOp: 70, Iterations: 17000000}}
	failures, warnings := evalGates(gates, results, baseline)
	if len(failures) != 0 {
		t.Errorf("failures = %v, want none", failures)
	}
	if len(warnings) != 0 {
		t.Errorf("warnings = %v, want none: measurement bases are incomparable", warnings)
	}
}

func TestReadBenchStreamEchoes(t *testing.T) {
	in := strings.NewReader("goos: linux\nBenchmarkX-8 100 42.0 ns/op 0 B/op 0 allocs/op\nPASS\n")
	var out strings.Builder
	results, err := readBenchStream(in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkX-8" || results[0].AllocsPerOp != 0 {
		t.Errorf("results = %+v", results)
	}
	if !strings.Contains(out.String(), "goos: linux") || !strings.Contains(out.String(), "PASS") {
		t.Errorf("stream not passed through: %q", out.String())
	}
}

func TestLoadGateFileRejectsEmptyAndUnknown(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"allocs_per_op": {}}`), 0o644)
	if _, err := loadGateFile(empty); err == nil {
		t.Error("empty budget map accepted; an empty gate passes everything silently")
	}
	typo := filepath.Join(dir, "typo.json")
	os.WriteFile(typo, []byte(`{"allocs_per_opp": {"BenchmarkX": 0}}`), 0o644)
	if _, err := loadGateFile(typo); err == nil {
		t.Error("unknown field accepted; a typoed key would disable the gate silently")
	}
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"allocs_per_op": {"BenchmarkX": 1}, "ns_warn_pct": 25}`), 0o644)
	g, err := loadGateFile(good)
	if err != nil {
		t.Fatalf("valid gate file rejected: %v", err)
	}
	if g.AllocsPerOp["BenchmarkX"] != 1 || g.NsWarnPct != 25 {
		t.Errorf("gate file misparsed: %+v", g)
	}
}
