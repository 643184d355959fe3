// Command benchmark is this repository's benchmark of record: six workloads
// over fork-join, dataflow, adaptive loops, root submission and HTTP
// serving, each verified, each reporting the same end-to-end metrics on an
// untraced run and the per-layer metrics on a traced one. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//	benchmark --mode run                                       all six, untraced then traced
//	benchmark --mode agree                                     two untraced sets, gated on the bounds
//	benchmark --mode seeds                                     seeds 1 and 2 side by side
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	mode     string
	outDir   string
	full     bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print its result line")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1: record spans and report the per-layer metrics")
	fs.StringVar(&o.mode, "mode", "run", "without -workload: run, agree or seeds")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for result.json and the trace files")
	fs.BoolVar(&o.full, "full", false, "with -trace 0: add the unbounded whole-workload metrics to the result line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o, stdout)
	case o.mode == "run":
		err = runAll(o, stdout)
	case o.mode == "agree":
		err = compareSets(o, stdout, o.seed, o.seed, true)
	case o.mode == "seeds":
		err = compareSets(o, stdout, 1, 2, false)
	default:
		err = fmt.Errorf("unknown mode %q", o.mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect is returned after the result line of a run whose outputs
// failed verification has been printed.
var errIncorrect = errors.New("verification failed")

// runOne runs one workload in this process with GOMAXPROCS = P.
func runOne(o options, stdout io.Writer) error {
	p := workerCount()
	runtime.GOMAXPROCS(p)
	cfg := config{
		seed:   o.seed,
		window: time.Duration(o.seconds * float64(time.Second)),
		warm:   warmUp,
		rounds: warmRounds,
		probe:  probeBudget,
		setups: setupReps,
		p:      p,
		outDir: o.outDir,
	}
	// An untraced run measures the whole-workload metrics too and prints
	// them; its result line has them only when asked (-full), because the
	// driver of BENCHMARK.json expects the end-to-end metrics alone.
	shown := slices.Concat(endToEnd, whole)
	defs := endToEnd
	switch {
	case o.trace == 1:
		cfg.tr = newTracer()
		shown, defs = perLayer, perLayer
	case o.full:
		defs = shown
	}
	out, err := execute(o.workload, cfg)
	if err != nil {
		return err
	}
	if _, err := out.m.emit(endToEnd, true); err != nil {
		return err
	}
	selected, err := out.m.emit(defs, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  window %gs  P %d  trace %d\n", o.workload, o.seed, o.seconds, p, o.trace)
	printMetrics(stdout, shown, out.m)
	if out.layers != nil {
		printLayers(stdout, out.layers)
	}
	fmt.Fprintf(stdout, "attempted %d  failed %d\n", out.attempted, out.failed)
	if out.failed > 0 {
		fmt.Fprintf(stdout, "first failure: %s\n", out.firstFailure)
	}
	if lag := out.m.value["loadgen.lag_ms_p99"]; lag > maxLagMS {
		fmt.Fprintf(stdout, "INVALID: the open-loop generator ran late (lag p99 %.2f ms > %g ms)\n", lag, maxLagMS)
	}
	line, err := json.Marshal(resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   selected,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		return errIncorrect
	}
	return nil
}

// maxLagMS is how late the open-loop generator may run (p99) before the run
// is flagged. The generator shares the P cores with the pool, so a request
// that falls due while every core is inside a task body waits for Go's
// 10 ms preemption tick, as the server's own handler goroutines do. Lag
// beyond one tick means the generator, not the server, shaped the latency.
const maxLagMS = 10.0
