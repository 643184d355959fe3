// Package figs is the paper's evaluation as one table. Each of its six
// figures, and the ablations of its design choices, is a Figure row: a
// name, the paper's expected shape, and three instances (small, default,
// paper), each a list of panels. A panel is one printed table: a workload,
// its sequential arm, and the scheduler arms measured against it over an x
// axis of core counts, or of matrix orders at the largest core count.
// Every repetition of every arm is checked against the sequential arm.
//
// cmd/xkfig prints the rows, the root package's BenchmarkFigures times
// every arm, and TestFigures smoke-runs every row through the same Print.
package figs

import (
	"fmt"
	"io"
	"math"
	"path"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/cilk"
	"xkaapi/gomp"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/epx"
	"xkaapi/internal/skyline"
	"xkaapi/internal/tile"
	"xkaapi/quark"
	"xkaapi/tbbsched"
)

// sizes names the instances; a row's build takes the index.
var sizes = []string{"small", "default", "paper"}

// Figures is the table, in the paper's order. Where the paper states no
// instance, a row's paper instance is its default and its Shape says so.
var Figures = []Figure{
	{"fig1", "Fibonacci task-creation overhead: Cilk+, TBB, X-Kaapi, OpenMP",
		"one spawn per node costs least under X-Kaapi at one core; expect the ordering, not the constants",
		func(s int) []panel { return []panel{fibPanel([...]int{20, 30, 35}[s])} }},
	{"fig2", "tile Cholesky GFlop/s: PLASMA/Quark, XKaapi, PLASMA/static",
		"at NB=128 XKaapi beats Quark (ready-list contention) and approaches static; at NB=224 the gap narrows",
		func(s int) []panel {
			if s == 0 {
				return tilePanels([]int{64, 128}, 16, 32)
			}
			return tilePanels([]int{512, 1024, 1536, 2048}, 128, 224)
		}},
	{"fig3", "speedup of the two EPX loops: OpenMP dynamic/static vs the X-Kaapi adaptive foreach",
		"OpenMP static ≈ dynamic; X-Kaapi close to OpenMP, ahead past ~25 cores (no mesh stated: paper = default)",
		func(s int) []panel {
			m := [...][4]int{{6, 6, 3, 4}, {20, 20, 10, 24}, {20, 20, 10, 24}}[s]
			return []panel{loopsPanel(m[0], m[1], m[2], m[3])}
		}},
	{"fig6", "EPX LOOPELM and REPERA speedup under X-Kaapi, MEPPEN and MAXPLANE",
		"LOOPELM is memory-bound and saturates on MEPPEN; REPERA scales (surrogate instances: paper = default)",
		func(s int) []panel { return epxPanels(s, fig6) }},
	{"fig7", "sparse skyline Cholesky speedup: OpenMP (taskwait) vs XKaapi (dataflow)",
		"XKaapi above OpenMP at every core count: OpenMP pays two barriers per elimination step",
		func(s int) []panel { return []panel{skylinePanel([...]int{528, 4096, 59462}[s], 88)} }},
	{"fig8", "EPX time decomposition under X-Kaapi, MEPPEN and MAXPLANE",
		"'other' stays constant as cores grow, Amdahl's law (surrogate instances: paper = default)",
		func(s int) []panel { return epxPanels(s, fig8) }},
	{"ablations", "ablations: steal-request aggregation, adaptive foreach, central ready list",
		"§II-C aggregation; §II-D/E tasks only on steal requests; Fig. 2's scheduler gap at fine grain (paper = default)",
		func(s int) []panel {
			return []panel{aggregationPanel([...]int{18, 25, 25}[s]),
				loopPanel([...]int{1 << 14, 1 << 20, 1 << 20}[s]), readyListPanel([...]int{128, 384, 384}[s])}
		}},
}

// A Figure is one row of the table.
type Figure struct {
	Name  string // what xkfig takes
	Title string
	Shape string // what the paper's plot shows, printed under the tables
	// build returns the panels of an instance: 0 small, 1 default, 2 paper.
	build func(size int) []panel
}

// A panel is one table of a figure.
type panel struct {
	name     string                            // tells a row's panels apart in benchmark names
	head     func(seq []float64, p int) string // the title; seq holds the sequential arm's parts
	sizes    []int                             // the x axis when matrix orders; nil: core counts
	arms     []arm                             // arms[0] is the sequential reference
	cols     []col
	slowdown string // the paper's 1-core slowdowns; set: print each column's over the sequential time
}

// An arm is one scheduler running a panel's workload. open builds its pool
// for p workers at x (the matrix order on a sizes axis, else p) and returns
// one repetition and the pool's close.
type arm struct {
	name string
	open func(p, x int) (trial, func())
}

// A trial is one repetition: it prepares a fresh input untimed, times the
// work, and returns the measured parts (seconds, or a count) and a digest
// of the result.
type trial func() (parts []float64, digest any, err error)

// A col is one series: part of arm's median repetition, shown as kind.
type col struct {
	name      string
	arm, part int
	kind      kind
}

type kind int

const (
	seconds kind = iota
	speedup      // the sequential arm's part over the arm's
	gflops       // Cholesky flops at matrix order x per second
	ideal        // x: the linear-speedup line
	count
)

var formats = [...]string{seconds: "%.4f", speedup: "%.2f", gflops: "%.3f", ideal: "%.2f", count: "%.1f"}

func (c col) value(x int, m [][]float64) float64 {
	v := m[c.arm][c.part]
	switch c.kind {
	case speedup:
		return m[0][c.part] / v
	case gflops:
		return cholesky.Gflops(x, time.Duration(v*float64(time.Second)))
	case ideal:
		return float64(x)
	}
	return v
}

// perArm is one column per arm after the sequential one, in kind k, with
// the ideal line after speedups.
func perArm(k kind, arms []arm) []col {
	var cs []col
	for a := 1; a < len(arms); a++ {
		cs = append(cs, col{arms[a].name, a, 0, k})
	}
	if k == speedup {
		cs = append(cs, col{"ideal", 0, 0, ideal})
	}
	return cs
}

// ParseCores parses a comma-separated list of core counts; empty means
// 1, 2, 4, ... up to GOMAXPROCS, which is always included.
func ParseCores(s string) ([]int, error) {
	var cs []int
	if strings.TrimSpace(s) == "" {
		top := runtime.GOMAXPROCS(0)
		for c := 1; c < top; c *= 2 {
			cs = append(cs, c)
		}
		return append(cs, top), nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		cs = append(cs, v)
	}
	return cs, nil
}

// Print runs the row at size ("small", "default" or "paper") over cores,
// with reps timed repetitions per point after one warm-up, and writes its
// tables to w. It stops at the first result that differs from the
// sequential arm's.
func (f *Figure) Print(w io.Writer, cores []int, reps int, size string) error {
	s := slices.Index(sizes, size)
	if s < 0 {
		return fmt.Errorf("unknown size %q: want small, default or paper", size)
	}
	for _, pn := range f.build(s) {
		if err := pn.print(w, cores, max(reps, 1)); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	_, err := fmt.Fprintf(w, "paper: %s\n\n", f.Shape)
	return err
}

func (pn panel) print(w io.Writer, cores []int, reps int) error {
	xs, names, p := cores, []string{"cores"}, slices.Max(cores)
	if pn.sizes != nil {
		xs, names = pn.sizes, []string{"size"}
	}
	seqReps := 0 // the sequential arm is timed only where a column divides by it
	for _, c := range pn.cols {
		names = append(names, c.name)
		if c.kind == speedup || pn.slowdown != "" {
			seqReps = reps
		}
	}
	m := make([][]float64, len(pn.arms))
	vals := make([][]float64, len(xs))
	var want any
	for i, x := range xs {
		var err error
		if pn.sizes == nil {
			p = x
		}
		if i == 0 || pn.sizes != nil { // a matrix order is a new input, so a new reference
			want = nil
			if m[0], err = measure(pn.arms[0], 1, x, seqReps, &want); err != nil {
				return err
			}
		}
		if i == 0 {
			fmt.Fprint(w, pn.head(m[0], p))
		}
		for a := 1; a < len(pn.arms); a++ {
			if m[a], err = measure(pn.arms[a], p, x, reps, &want); err != nil {
				return err
			}
		}
		for _, c := range pn.cols {
			vals[i] = append(vals[i], c.value(x, m))
		}
	}
	table(w, xs, names, pn.cols, vals)
	if pn.slowdown != "" {
		fmt.Fprintf(w, "\n1-core slowdown vs sequential (paper: %s):\n", pn.slowdown)
		for j, c := range pn.cols {
			fmt.Fprintf(w, "  %-7s x%.1f\n", c.name, vals[0][j]/m[0][0])
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// measure opens a for p workers at x and returns the parts of the median
// (by the first part) of reps timed repetitions after one warm-up, or the
// warm-up's when reps is 0. Every repetition's digest must equal *want,
// which the first one sets when nil.
func measure(a arm, p, x, reps int, want *any) ([]float64, error) {
	run, done := a.open(p, x)
	defer done()
	var all [][]float64
	for i := 0; i <= reps; i++ {
		parts, sum, err := run()
		if err == nil && *want != nil && sum != *want {
			err = fmt.Errorf("result %v, the sequential arm's is %v", sum, *want)
		}
		if err != nil {
			return nil, fmt.Errorf("%s on %d workers: %w", a.name, p, err)
		}
		*want = sum
		if i > 0 || reps == 0 {
			all = append(all, parts)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	return all[len(all)/2], nil
}

// table writes a header, a rule and one right-aligned row per x.
func table(w io.Writer, xs []int, names []string, cols []col, vals [][]float64) {
	rows := [][]string{names, nil}
	for i, x := range xs {
		row := []string{strconv.Itoa(x)}
		for j, c := range cols {
			row = append(row, fmt.Sprintf(formats[c.kind], vals[i][j]))
		}
		rows = append(rows, row)
	}
	width := make([]int, len(names))
	for _, row := range rows {
		for j, cell := range row {
			width[j] = max(width[j], len(cell))
		}
	}
	for _, n := range width {
		rows[1] = append(rows[1], strings.Repeat("-", n))
	}
	for _, row := range rows {
		for j := range row {
			row[j] = fmt.Sprintf("%*s", width[j], row[j])
		}
		fmt.Fprintln(w, strings.Join(row, "  "))
	}
}

// A Case is one arm of one panel at the small instance. Run returns the
// seconds of its median of reps repetitions, each checked against the
// panel's sequential arm: the part the figure plots, not the input's set-up.
type Case struct {
	Name string // panel/arm
	Run  func(reps int) (float64, error)
}

// Cases returns every arm of every panel of f at its small instance, on p
// workers (at the smallest order of a sizes axis).
func (f *Figure) Cases(p int) []Case {
	var cs []Case
	for _, pn := range f.build(0) {
		x := p
		if pn.sizes != nil {
			x = pn.sizes[0]
		}
		for _, a := range pn.arms {
			cs = append(cs, Case{path.Join(pn.name, a.name), func(reps int) (float64, error) {
				var want any
				if _, err := measure(pn.arms[0], 1, x, 0, &want); err != nil {
					return 0, err
				}
				parts, err := measure(a, p, x, reps, &want)
				if err != nil {
					return 0, err
				}
				return parts[0], nil
			}})
		}
	}
	return cs
}

// fold hashes the bits of xs into h (FNV-1a over 64-bit words): two results
// digest alike when they are bitwise equal, and otherwise collide with
// probability 2^-64.
func fold(h uint64, xs ...float64) uint64 {
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// work is a workload whose repetitions consume an input: input(x) returns
// what makes a fresh one, sum digests the result.
type work[T any] struct {
	input func(x int) func() T
	sum   func(T) any
}

// arm times run on a fresh input; open builds the scheduler for p workers.
func (w work[T]) arm(name string, open func(p int) (run func(T) error, done func())) arm {
	return arm{name, func(p, x int) (trial, func()) {
		run, done := open(p)
		input := w.input(x)
		return func() ([]float64, any, error) {
			in := input()
			t0 := time.Now()
			err := run(in)
			return []float64{time.Since(t0).Seconds()}, w.sum(in), err
		}, done
	}}
}

// inline is the sequential scheduler: f on the calling goroutine.
func inline[T any](f func(T) error) func(int) (func(T) error, func()) {
	return func(int) (func(T) error, func()) { return f, func() {} }
}

// kaapiArm runs do on an X-Kaapi pool of p workers built with opts.
func kaapiArm[T any](w work[T], name string, do func(*xkaapi.Runtime, T) error, opts ...xkaapi.Option) arm {
	return w.arm(name, func(p int) (func(T) error, func()) {
		rt := xkaapi.New(append(opts, xkaapi.WithWorkers(p))...)
		return func(in T) error { return do(rt, in) }, rt.Close
	})
}

// zero makes a fresh zero T: the input of a workload that only writes.
func zero[T any](int) func() *T { return func() *T { return new(T) } }

// --- Fig. 1: the Fibonacci program, one spawned task per node, one inline
// recursive call, one sync, on each scheduler.

var fib = work[*int64]{input: zero[int64], sum: func(r *int64) any { return *r }}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func fibKaapi(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	p.Spawn(func(p *xkaapi.Proc) { fibKaapi(p, &r1, n-1) })
	fibKaapi(p, &r2, n-2)
	p.Sync()
	*r = r1 + r2
}

func fibCilk(w *cilk.Worker, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	w.Spawn(func(w *cilk.Worker) { fibCilk(w, &r1, n-1) })
	fibCilk(w, &r2, n-2)
	w.Sync()
	*r = r1 + r2
}

func fibTBB(c *tbbsched.Context, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	c.Spawn(tbbsched.FuncTask(func(c *tbbsched.Context) { fibTBB(c, &r1, n-1) }))
	fibTBB(c, &r2, n-2)
	c.Wait()
	*r = r1 + r2
}

func fibGomp(tc *gomp.TC, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var r1, r2 int64
	tc.Task(func(tc *gomp.TC) { fibGomp(tc, &r1, n-1) })
	fibGomp(tc, &r2, n-2)
	tc.Taskwait()
	*r = r1 + r2
}

func fibSeqArm(n int) arm {
	return fib.arm("seq", inline(func(r *int64) error { *r = fibSeq(n); return nil }))
}

func fibKaapiArm(name string, n int, opts ...xkaapi.Option) arm {
	return kaapiArm(fib, name, func(rt *xkaapi.Runtime, r *int64) error {
		return rt.Run(func(p *xkaapi.Proc) { fibKaapi(p, r, n) })
	}, opts...)
}

func fibPanel(n int) panel {
	arms := []arm{fibSeqArm(n),
		fib.arm("Cilk+", func(p int) (func(*int64) error, func()) {
			pool := cilk.NewPool(p)
			return func(r *int64) error { return pool.Run(func(w *cilk.Worker) { fibCilk(w, r, n) }) }, pool.Close
		}),
		fib.arm("TBB", func(p int) (func(*int64) error, func()) {
			s := tbbsched.NewScheduler(p)
			return func(r *int64) error { return s.Run(func(c *tbbsched.Context) { fibTBB(c, r, n) }) }, s.Close
		}),
		fibKaapiArm("Kaapi", n),
		fib.arm("OpenMP", func(p int) (func(*int64) error, func()) {
			tm := gomp.NewTeam(p)
			return func(r *int64) error {
				return tm.Parallel(func(tc *gomp.TC) { tc.Single(func() { fibGomp(tc, r, n) }) })
			}, tm.Close
		}),
	}
	return panel{arms: arms, cols: perArm(seconds, arms),
		slowdown: "Cilk+ x11.7, TBB x26, Kaapi x8, OpenMP x27",
		head: func(seq []float64, _ int) string {
			return fmt.Sprintf("Fig.1 — Fibonacci(%d) task creation overhead (sequential: %.4fs)\n\n", n, seq[0])
		}}
}

// --- Fig. 2: tile Cholesky of the order-x SPD matrix, tiled afresh for
// each repetition; the digest covers every bit of every tile.

func tileArms(nb int) []arm {
	w := work[*tile.Tiled]{
		input: func(n int) func() *tile.Tiled {
			src := tile.NewSPD(n, 42)
			return func() *tile.Tiled { return tile.FromDense(src, nb) }
		},
		sum: func(m *tile.Tiled) any {
			h := uint64(fnvOffset)
			for _, t := range m.T {
				h = fold(h, t...)
			}
			return h
		},
	}
	quarkArm := func(name string, e quark.Engine) arm {
		return w.arm(name, func(p int) (func(*tile.Tiled) error, func()) {
			q := quark.New(p, e)
			return func(m *tile.Tiled) error { return cholesky.RunQuark(q, m) }, q.Delete
		})
	}
	return []arm{w.arm("seq", inline(cholesky.Seq)),
		quarkArm("PLASMA/Quark", quark.EngineNative), // QUARK's own centralized ready list
		quarkArm("XKaapi", quark.EngineKaapi),        // the same insertion sequence on X-Kaapi's deques
		w.arm("PLASMA/static", func(p int) (func(*tile.Tiled) error, func()) {
			return func(m *tile.Tiled) error { return cholesky.Static(p, m) }, func() {}
		}),
	}
}

func tilePanels(orders []int, nbs ...int) []panel {
	var ps []panel
	for _, nb := range nbs {
		arms := tileArms(nb)
		ps = append(ps, panel{name: fmt.Sprintf("NB=%d", nb), sizes: orders, arms: arms, cols: perArm(gflops, arms),
			head: func(_ []float64, p int) string {
				return fmt.Sprintf("Fig.2 — Cholesky GFlop/s, NB=%d, %d cores\n\n", nb, p)
			}})
	}
	return ps
}

// --- Figs. 3, 6 and 8: EPX on its backends.

// backendArm runs do on an EPX backend for p workers and appends to its
// parts the adaptive splits per loop, of which do runs loops (0 off X-Kaapi).
func backendArm(name string, mk func(p int) epx.Backend, loops int, do func(epx.Backend) ([]float64, any, error)) arm {
	return arm{name, func(p, _ int) (trial, func()) {
		b := mk(p)
		return func() ([]float64, any, error) {
			s0 := splits(b)
			parts, sum, err := do(b)
			return append(parts, float64(splits(b)-s0)/float64(loops)), sum, err
		}, b.Close
	}}
}

func splits(b epx.Backend) int64 {
	if k, ok := b.(interface{ Runtime() *xkaapi.Runtime }); ok {
		return k.Runtime().Stats().Splits
	}
	return 0
}

func seqBackend(int) epx.Backend { return epx.NewSeqBackend() }

// loopsPanel is Fig. 3: LOOPELM then REPERA, the two parallel loops of an
// EPX step, on an nx×ny×nz mesh.
func loopsPanel(nx, ny, nz, refine int) panel {
	mesh := epx.NewBox(nx, ny, nz, 1)
	st := epx.NewState(mesh, epx.Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.4, 0.8)
	st.Integrate()
	rep := epx.NewRepera(mesh, refine)
	rep.Build(st.Disp)
	strain := slices.Clone(st.PStrain)
	loops := func(b epx.Backend) ([]float64, any, error) {
		copy(st.PStrain, strain) // LOOPELM accumulates plastic strain: every repetition starts alike
		t0 := time.Now()
		b.Foreach(0, mesh.NumElems(), func(lo, hi int) { st.ElemForceRange(lo, hi) })
		b.Foreach(0, mesh.NumNodes(), func(lo, hi int) { rep.SortRange(st.Disp, lo, hi) })
		d := time.Since(t0).Seconds()
		st.Assemble()
		return []float64{d}, [2]float64{st.ForceNorm(), rep.CandChecksum()}, nil
	}
	arms := []arm{backendArm("seq", seqBackend, 2, loops),
		backendArm("OpenMP/dynamic", func(p int) epx.Backend { return epx.NewGompBackend(p, gomp.Dynamic, 16) }, 2, loops),
		backendArm("OpenMP/static", func(p int) epx.Backend { return epx.NewGompBackend(p, gomp.Static, 0) }, 2, loops),
		backendArm("XKaapi", epx.NewKaapiBackend, 2, loops),
	}
	return panel{arms: arms, cols: append(perArm(speedup, arms), col{"splits", 3, 1, count}),
		head: func(seq []float64, _ int) string {
			return fmt.Sprintf("Fig.3 — parallel loop speedup (mesh %dx%dx%d: %d elems, %d nodes; Tseq=%.3fs)\n\n",
				nx, ny, nz, mesh.NumElems(), mesh.NumNodes(), seq[0])
		}}
}

// simArm runs one EPX simulation of in; its parts are total, repera,
// loopelm, cholesky, other (seconds) and splits per loop.
func simArm(name string, in epx.Instance, mk func(int) epx.Backend) arm {
	return backendArm(name, mk, 2*in.Steps, func(b epx.Backend) ([]float64, any, error) {
		s, err := epx.NewSim(in)
		if err != nil {
			return nil, nil, err
		}
		pt, err := s.Run(b)
		var parts []float64
		for _, d := range []time.Duration{pt.Total(), pt.Repera, pt.Loopelm, pt.Cholesky, pt.Other} {
			parts = append(parts, d.Seconds())
		}
		return parts, [3]float64{s.ForceNorm, s.CandSum, s.SolNorm}, err
	})
}

func epxPanels(s int, fig func(epx.Instance) panel) []panel {
	var ps []panel
	for _, in := range []epx.Instance{epx.MEPPEN(1), epx.MAXPLANE(1)} {
		if s == 0 {
			in.NX, in.NY, in.NZ, in.Steps, in.HN = 6, 6, 3, 2, 200
		}
		ps = append(ps, fig(in))
	}
	return ps
}

func fig6(in epx.Instance) panel {
	return panel{name: in.Name,
		arms: []arm{simArm("seq", in, seqBackend), simArm("XKaapi", in, epx.NewKaapiBackend)},
		cols: []col{{"LOOPELM", 1, 2, speedup}, {"REPERA", 1, 1, speedup}, {"ideal", 0, 0, ideal}, {"splits", 1, 5, count}},
		head: func(seq []float64, _ int) string {
			return fmt.Sprintf("Fig.6 — %s: LOOPELM / REPERA speedup under X-Kaapi (Tseq: loopelm=%.3fs repera=%.3fs)\n\n",
				in.Name, seq[2], seq[1])
		}}
}

func fig8(in epx.Instance) panel {
	kaapi := func(p int) epx.Backend { // one core is the sequential code, as in the paper
		if p == 1 {
			return epx.NewSeqBackend()
		}
		return epx.NewKaapiBackend(p)
	}
	return panel{name: in.Name,
		arms: []arm{simArm("seq", in, seqBackend), simArm("XKaapi", in, kaapi)},
		cols: []col{{"repera", 1, 1, seconds}, {"loopelm", 1, 2, seconds}, {"cholesky", 1, 3, seconds},
			{"other", 1, 4, seconds}, {"total", 1, 0, seconds}},
		head: func([]float64, int) string {
			return fmt.Sprintf("Fig.8 — %s: time decomposition (seconds) under X-Kaapi\n\n", in.Name)
		}}
}

// --- Fig. 7: skyline Cholesky of the paper's MAXPLANE-shaped matrix (fill
// 3.59 %), cloned for each repetition; the digest covers the envelope, the
// entries the kernels write.

func skylinePanel(n, bs int) panel {
	src, err := skyline.NewSPD(skyline.GenEnvelope(n, 0.0359, 59462), bs, 7)
	if err != nil {
		panic(err) // unreachable: GenEnvelope starts row i inside [0, i]
	}
	w := work[*skyline.Matrix]{
		input: func(int) func() *skyline.Matrix { return src.Clone },
		sum: func(m *skyline.Matrix) any {
			h := uint64(fnvOffset)
			for i := 0; i < m.N; i++ {
				for j := m.RowStart(i); j <= i; j++ {
					h = fold(h, m.At(i, j))
				}
			}
			return h
		},
	}
	arms := []arm{w.arm("seq", inline(skyline.FactorSeq)),
		w.arm("OpenMP", func(p int) (func(*skyline.Matrix) error, func()) {
			team := gomp.NewTeam(p)
			return func(m *skyline.Matrix) error { return skyline.FactorGomp(team, m) }, team.Close
		}),
		kaapiArm(w, "XKaapi", skyline.FactorKaapi),
	}
	return panel{arms: arms, cols: perArm(speedup, arms),
		head: func(seq []float64, _ int) string {
			return fmt.Sprintf("Fig.7 — sparse skyline Cholesky speedup (n=%d, fill=%.2f%%, BS=%d, Tseq=%.3fs)\n\n",
				n, src.Fill()*100, bs, seq[0])
		}}
}

// --- Ablations.

// aggregationPanel is §II-C: one combiner answering all concurrent thieves,
// on and off, on Fig. 1's steal-heavy program.
func aggregationPanel(n int) panel {
	arms := []arm{fibSeqArm(n), fibKaapiArm("on", n), fibKaapiArm("off", n, xkaapi.WithoutAggregation())}
	return panel{name: "aggregation", arms: arms, cols: perArm(seconds, arms),
		head: func([]float64, int) string {
			return fmt.Sprintf("Ablation — steal-request aggregation on/off: X-Kaapi fib(%d), seconds\n\n", n)
		}}
}

// chunk is the grain of the task-per-chunk loop.
const chunk = 1024

// loopPanel is §II-D/E: the adaptive foreach creates tasks only when a
// thief asks; the alternative spawns one task per chunk up front.
func loopPanel(n int) panel {
	w := work[*atomic.Int64]{input: zero[atomic.Int64], sum: func(s *atomic.Int64) any { return s.Load() }}
	body := func(lo, hi int, sum *atomic.Int64) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i ^ (i >> 3))
		}
		sum.Add(s)
	}
	arms := []arm{w.arm("seq", inline(func(sum *atomic.Int64) error { body(0, n, sum); return nil })),
		kaapiArm(w, "adaptive", func(rt *xkaapi.Runtime, sum *atomic.Int64) error {
			return rt.Foreach(0, n, func(_ *xkaapi.Proc, lo, hi int) { body(lo, hi, sum) })
		}),
		kaapiArm(w, "task-per-chunk", func(rt *xkaapi.Runtime, sum *atomic.Int64) error {
			return rt.Run(func(p *xkaapi.Proc) {
				for lo := 0; lo < n; lo += chunk {
					p.Spawn(func(*xkaapi.Proc) { body(lo, min(lo+chunk, n), sum) })
				}
				p.Sync()
			})
		}),
	}
	return panel{name: "loop", arms: arms, cols: perArm(seconds, arms),
		head: func([]float64, int) string {
			return fmt.Sprintf("Ablation — adaptive foreach vs a task per %d-iteration chunk: %d iterations, seconds\n\n", chunk, n)
		}}
}

// readyListPanel is Fig. 2's two QUARK arms at NB=32, where task management
// outweighs the kernels: QUARK's central ready list vs X-Kaapi's deques.
func readyListPanel(n int) panel {
	arms := tileArms(32)[:3]
	return panel{name: "ready-list", sizes: []int{n}, arms: arms, cols: perArm(seconds, arms),
		head: func(_ []float64, p int) string {
			return fmt.Sprintf("Ablation — central ready list (PLASMA/Quark) vs distributed deques (XKaapi): Cholesky NB=32, %d cores, seconds\n\n", p)
		}}
}
