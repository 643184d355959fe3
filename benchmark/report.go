package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// referenceP is the P of the machine the fixed parameters were calibrated
// on (README, "Calibration").
const referenceP = 2

// tracedSeconds is the window of the traced run in -mode run; the
// end-to-end metrics always come from the longer untraced run.
const tracedSeconds = 5

// quantileOf reads the percentile out of a metric name ending in _pNN.
func quantileOf(name string) (float64, bool) {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return 0, false
	}
	p, err := strconv.ParseFloat(name[i+2:], 64)
	return p, err == nil
}

// printMetrics prints the metrics of defs by name with unit and sample
// count. A tail percentile with fewer than ten samples beyond it is not
// printed: the value is in the result line, but it is not a measurement.
func printMetrics(w io.Writer, defs []metricDef, m *metrics) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tsamples")
	for _, d := range defs {
		v, set := m.value[d.Name]
		if !set {
			continue // a layer this workload does not use
		}
		n, timing := m.count[d.Name]
		count := ""
		if timing {
			count = strconv.Itoa(n)
		}
		value := strconv.FormatFloat(v, 'g', 6, 64)
		if p, ok := quantileOf(d.Name); ok && timing && p > 50 && p > supportedTail(n) {
			value = "-"
			count += " (fewer than 10 beyond)"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", d.Name, value, d.Unit, count)
	}
	tw.Flush()
}

func printLayers(w io.Writer, layers []layerTime) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tspans\ttotal_ms\tself_ms")
	for _, l := range layers {
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\n", l.Layer, l.Spans, l.TotalMS, l.SelfMS)
	}
	tw.Flush()
}

// environment is what a report records about the machine.
type environment struct {
	NProc     int     `json:"nproc"`
	P         int     `json:"p"`
	GoVersion string  `json:"go_version"`
	CPUModel  string  `json:"cpu_model"`
	LoadAvg1  float64 `json:"load_avg_1min"`
	Loaded    bool    `json:"loaded"` // load average above P/2 before the start
}

func readEnvironment() environment {
	e := environment{NProc: runtime.NumCPU(), P: workerCount(), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Loaded = e.LoadAvg1 > float64(e.P)/2
	return e
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "nproc %d  P %d  %s  %s  load average %.2f\n", e.NProc, e.P, e.GoVersion, e.CPUModel, e.LoadAvg1)
	fmt.Fprintln(w, "results taken at different P are not comparable")
	if e.P != referenceP {
		fmt.Fprintf(w, "NOTE: serve_mixed_open's %g req/s is about 40 %% of capacity at P = %d only; at P = %d it is another load\n", mixedRate, referenceP, e.P)
	}
	if e.Loaded {
		fmt.Fprintf(w, "FLAGGED: load average %.2f exceeds P/2 before the start; timings are suspect\n", e.LoadAvg1)
	}
}

// child runs one workload in a process of its own, passes its report
// through and returns its result line.
func child(o options, stdout io.Writer, workload string, seed uint64, seconds float64, trace int) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe,
		"--full",
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--out", o.outDir)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	cut := strings.LastIndex(text, "\n") + 1
	fmt.Fprint(stdout, text[:cut])
	if err := json.Unmarshal([]byte(text[cut:]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return res, nil
}

// result is the file -mode run writes.
type result struct {
	Environment environment            `json:"environment"`
	Seed        uint64                 `json:"seed"`
	Workloads   map[string]workloadOut `json:"workloads"`
}

type workloadOut struct {
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// runAll runs every workload untraced and then traced, each in its own
// process, prints the named-metric table and writes result.json.
func runAll(o options, stdout io.Writer) error {
	env := readEnvironment()
	env.print(stdout)
	res := result{Environment: env, Seed: o.seed, Workloads: map[string]workloadOut{}}
	var firstErr error
	for _, name := range workloadNames {
		var out workloadOut
		var err error
		if out.EndToEnd, err = child(o, stdout, name, o.seed, o.seconds, 0); err != nil && firstErr == nil {
			firstErr = err
		}
		if out.PerLayer, err = child(o, stdout, name, o.seed, tracedSeconds, 1); err != nil && firstErr == nil {
			firstErr = err
		}
		res.Workloads[name] = out
	}
	fmt.Fprintln(stdout)
	env.print(stdout)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tunit\t%s\n", strings.Join(workloadNames, "\t"))
	// The end-to-end and whole-workload rows are the untraced run's, the
	// layers' rows the traced run's.
	for _, d := range slices.Concat(endToEnd, perLayer) {
		fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
		for _, name := range workloadNames {
			v, untraced := res.Workloads[name].EndToEnd.Metrics[d.Name]
			if !untraced {
				v = res.Workloads[name].PerLayer.Metrics[d.Name]
			}
			fmt.Fprintf(tw, "\t%.5g", v.Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	return firstErr
}

// compareSets runs two full untraced sets, with seedA and seedB, and prints
// every end-to-end metric of both with their relative difference and the
// metric's bound. With gate set (the same seed twice: the same code must
// agree with itself) a difference beyond the bound is an error.
func compareSets(o options, stdout io.Writer, seedA, seedB uint64, gate bool) error {
	env := readEnvironment()
	env.print(stdout)
	var sets [2]map[string]resultLine
	for i, seed := range []uint64{seedA, seedB} {
		sets[i] = map[string]resultLine{}
		for _, name := range workloadNames {
			res, err := child(o, io.Discard, name, seed, o.seconds, 0)
			if err != nil {
				return err
			}
			sets[i][name] = res
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tseed %d\tseed %d\tdifference\tbound\t\n", seedA, seedB)
	outside := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := sets[0][name].Metrics[d.Name].Value, sets[1][name].Metrics[d.Name].Value
			diff := ratio(math.Abs(b-a), math.Abs(a))
			mark := ""
			if gate && diff > d.Bound {
				mark = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.1f%%\t%.0f%%\t%s\n", name, d.Name, d.Unit, a, b, 100*diff, 100*d.Bound, mark)
		}
		// The whole-workload metrics are shown, not gated. failed_share
		// needs no gate: a run with a failed operation has ended the
		// comparison above.
		for _, d := range whole {
			a, b := sets[0][name].Metrics[d.Name].Value, sets[1][name].Metrics[d.Name].Value
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t\t-\t\n", name, d.Name, d.Unit, a, b)
		}
	}
	tw.Flush()
	if outside > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between the two sets by more than their bound", outside)
	}
	return nil
}
