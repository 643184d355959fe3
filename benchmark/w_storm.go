package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xkaapi"
)

// stormWorkload uses the scheduler the other way round: P outside
// goroutines each submit a tiny root job and wait for it, in a closed
// loop. The work is external root submission, the inbox, the fleet router,
// park and wake, and Job allocation; in-pool recursion is a fan-out of
// eight.
type stormWorkload struct {
	cfg config

	in   []uint64 // seeded busy-work inputs
	want []uint64 // their outputs, computed at set-up
	rt   *xkaapi.Runtime

	stormRecord   // all clients of the measured window
	before, after poolSnap
	elapsed       time.Duration
}

// stormRecord is what one submitting goroutine, or all of them together,
// recorded.
type stormRecord struct {
	counts
	begin, lat    samples // offset of Submit into the window; Submit to Wait return
	traced, plain samples // lat split by whether spans were recorded
	submit, wait  samples // time inside SubmitCtx; its return to Wait's
}

func (r *stormRecord) add(o *stormRecord) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.first == "" {
		r.first = o.first
	}
	r.begin = append(r.begin, o.begin...)
	r.lat = append(r.lat, o.lat...)
	r.traced = append(r.traced, o.traced...)
	r.plain = append(r.plain, o.plain...)
	r.submit = append(r.submit, o.submit...)
	r.wait = append(r.wait, o.wait...)
}

const (
	stormShards   = 2
	stormChildren = 8
	stormSpin     = 500  // multiply-add steps per child, about 1 µs
	stormInputs   = 1024 // distinct seeded inputs the operations cycle through
	stormTraceOne = 64   // a traced run records spans for one operation in 64
)

func newStormWorkload(cfg config) *stormWorkload { return &stormWorkload{cfg: cfg} }

// spin is the child task's work: a dependent multiply-add chain the
// compiler cannot shorten, whose result is checked.
func spin(x uint64) uint64 {
	for i := 0; i < stormSpin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func (w *stormWorkload) setup() error {
	r := newRand(w.cfg.seed, 2)
	w.in = make([]uint64, stormInputs)
	w.want = make([]uint64, stormInputs)
	for i := range w.in {
		w.in[i] = r.Next()
		w.want[i] = spin(w.in[i])
	}
	w.rt = xkaapi.New(xkaapi.WithWorkers(w.cfg.p), xkaapi.WithShards(stormShards))
	if warm := w.loop(w.cfg.warm, nil); warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.first)
	}
	return nil
}

// loop runs the P clients for d and returns what they recorded.
func (w *stormWorkload) loop(d time.Duration, tr *tracer) *stormRecord {
	clients := make([]stormRecord, w.cfg.p)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := range clients {
		wg.Add(1)
		go func(c int, cl *stormRecord) {
			defer wg.Done()
			var out [stormChildren]uint64
			for i := 0; time.Now().Before(end); i++ {
				base := (c*7919 + i*stormChildren) % stormInputs
				o := traceOp(tr, uint64(c)+uint64(i)*uint64(len(clients)), i%stormTraceOne == stormTraceOne-1)
				root := o.begin(0, "loadgen.op")
				t0 := time.Now()
				s := o.begin(root.id, "core.SubmitCtx")
				job := w.rt.SubmitCtx(context.Background(), func(p *xkaapi.Proc) {
					for j := 0; j < stormChildren; j++ {
						p.Spawn(func(*xkaapi.Proc) { out[j] = spin(w.in[(base+j)%stormInputs]) })
					}
					p.Sync()
				})
				s.end()
				t1 := time.Now()
				s = o.begin(root.id, "core.Wait")
				err := job.Wait()
				s.end()
				t2 := time.Now()
				root.end()

				cl.attempted++
				if err != nil {
					cl.fail("storm job: %v", err)
					continue
				}
				wrong := -1
				for j := range out {
					if out[j] != w.want[(base+j)%stormInputs] {
						wrong = j
					}
				}
				if wrong >= 0 {
					cl.fail("storm job: child %d returned %d, want %d", wrong, out[wrong], w.want[(base+wrong)%stormInputs])
					continue
				}
				cl.begin = append(cl.begin, t0.Sub(start))
				cl.lat = append(cl.lat, t2.Sub(t0))
				cl.submit = append(cl.submit, t1.Sub(t0))
				cl.wait = append(cl.wait, t2.Sub(t1))
				if o.on() {
					cl.traced = append(cl.traced, t2.Sub(t0))
				} else {
					cl.plain = append(cl.plain, t2.Sub(t0))
				}
			}
		}(c, &clients[c])
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	total := &stormRecord{}
	for i := range clients {
		total.add(&clients[i])
	}
	return total
}

func (w *stormWorkload) measure() error {
	w.before = snapPool(w.rt)
	w.stormRecord = *w.loop(w.cfg.window, w.cfg.tr)
	w.after = snapPool(w.rt)
	return nil
}

func (w *stormWorkload) report(m *metrics) {
	n := len(w.lat)
	// No latency limit: every verified operation counts.
	endToEndMetrics(m, timeSlices(w.cfg.window, w.begin, w.lat, 0))
	m.timing("core.submit_us_p50", w.submit.p50()*1e3, n)
	m.timing("core.wait_us_p50", w.wait.p50()*1e3, n)
	coreMetrics(m, w.before, w.after, w.rt.Workers(), w.elapsed.Seconds(), float64(w.attempted))
	traceOverhead(m, w.traced, w.plain)
	w.counts.report(m, w.elapsed)
	// The operations cycle through stormInputs inputs.
	m.set("loadgen.key_reuse_share", max(0, ratio(float64(w.attempted)-stormInputs/stormChildren, float64(w.attempted))))
}

func (w *stormWorkload) close() { closePools(&w.rt) }
