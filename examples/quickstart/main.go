// Quickstart for the xkaapi runtime: the three paradigms in ~150 lines.
//
//	go run ./examples/quickstart
//
// It shows (1) fork-join tasks with Spawn/Sync, (2) dataflow tasks whose
// execution order is derived from declared accesses, (3) an adaptive
// parallel loop with a reduction, (4) concurrent job submission: many
// goroutines sharing one worker pool through Submit/Wait, (5) error
// handling: jobs that panic or are cancelled fail individually — the
// runtime survives and reports the failure from Run / Job.Wait —
// (6) serving jobs over HTTP: the same pool behind package server's
// request-per-job front-end with deadlines, queued admission (bursts wait
// in a bounded FIFO under their own deadline instead of bouncing 429) and
// request coalescing (concurrent small /fib and /loop requests fold into
// one batched job), and
// (7) deadline-aware bodies: every task sees its job's context through
// Proc.Context — one failure state machine cancels it on panic, Cancel,
// deadline or disconnect, in every paradigm layer of this module — and
// (8) scaling out with shards: a pool is always a fleet of scheduler shards
// (one by default; a worker is a goroutine per P, not a locked OS thread)
// and WithShards puts several behind the load-aware router, idle shards
// steal queued roots from loaded siblings, and ShardStats shows placement
// and migration per shard, and
// (9) fault injection: WithChaos arms a deterministic, seeded chaos
// harness in the scheduler itself, so panics and stalls are reproducible test inputs instead of production surprises.
//
// The context rules shown here are machine-checked: `make lint` runs the
// module's own analyzers (internal/analysis, via cmd/xkvet), which reject
// task bodies that call context.Background or shadow the job's context.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"xkaapi"
	"xkaapi/server"
)

// fib spawns one task per node, exactly like Fig. 1 of the X-Kaapi paper.
func fib(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	var a, b int64
	p.Spawn(func(p *xkaapi.Proc) { fib(p, &a, n-1) })
	fib(p, &b, n-2)
	p.Sync()
	*r = a + b
}

func main() {
	rt := xkaapi.New() // one worker per core
	defer rt.Close()

	// 1. Fork-join tasks. Spawning is cheap by design — a steady-state
	// spawn/execute cycle allocates nothing (task descriptors recycle
	// through per-worker slabs) and costs tens of nanoseconds, so even
	// fib's two-instruction bodies parallelize; the budgets are enforced
	// per PR (`make bench-gate`, bench_gates.json) and the mechanisms are
	// documented under "The spawn fast path" in internal/core.
	var f int64
	rt.Run(func(p *xkaapi.Proc) { fib(p, &f, 30) })
	fmt.Println("fib(30) =", f)

	// 2. Dataflow tasks: the runtime sequences produce → transform →
	// consume through the declared accesses, even though all three tasks
	// are spawned immediately.
	var h xkaapi.Handle
	data := make([]float64, 1<<20)
	var sum float64
	rt.Run(func(p *xkaapi.Proc) {
		p.SpawnTask(func(*xkaapi.Proc) {
			for i := range data {
				data[i] = float64(i % 7)
			}
		}, xkaapi.Write(&h))
		p.SpawnTask(func(*xkaapi.Proc) {
			for i := range data {
				data[i] *= 2
			}
		}, xkaapi.ReadWrite(&h))
		p.SpawnTask(func(*xkaapi.Proc) {
			for _, v := range data {
				sum += v
			}
		}, xkaapi.Read(&h))
		p.Sync()
	})
	fmt.Println("dataflow sum =", sum)

	// 3. Adaptive parallel loop with a reduction: iterations are divided
	// on demand as workers go idle (kaapic_foreach).
	var pi float64
	rt.Run(func(p *xkaapi.Proc) {
		const n = 10_000_000
		pi = xkaapi.ForeachReduce(p, 0, n, xkaapi.LoopOpts{},
			func() float64 { return 0 },
			func(_ *xkaapi.Proc, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					x := (float64(i) + 0.5) / n
					acc += 4 / (1 + x*x)
				}
				return acc
			},
			func(a, b float64) float64 { return a + b },
		) / n
	})
	fmt.Println("pi ≈", pi)

	// 4. Concurrent submission: independent clients fire jobs at the same
	// runtime from their own goroutines — no runtime per client, no
	// serialization of parallel regions. Each Submit returns a Job handle;
	// Run is Submit plus Wait.
	var wg sync.WaitGroup
	results := make([]int64, 4)
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Submit(func(p *xkaapi.Proc) { fib(p, &results[c], 20+c) }).Wait()
		}()
	}
	wg.Wait()
	fmt.Println("concurrent fib(20..23) =", results)

	// 5. Error handling. A panic anywhere in a job's task tree does not
	// kill the process: the job fails with a *PanicError carrying the
	// panic value and stack, its remaining tasks are cancelled, and the
	// error comes back from Run (or Job.Wait). Other jobs are unaffected.
	err := rt.Run(func(p *xkaapi.Proc) {
		p.Spawn(func(*xkaapi.Proc) { panic("kernel exploded") })
		p.Spawn(func(*xkaapi.Proc) { /* cancelled once the sibling fails */ })
		p.Sync()
	})
	var pe *xkaapi.PanicError
	if errors.As(err, &pe) {
		fmt.Println("job failed with panic:", pe.Value)
	}

	// Jobs can also be abandoned. SubmitCtx ties a job to a context:
	// cancelling it stops the runtime from starting the job's remaining
	// tasks, and Wait reports the context's error. (Job.Cancel does the
	// same without a context; bodies already running finish — poll
	// Proc.JobFailed in long loops to stop early.)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // give up immediately, for the demo
	err = rt.SubmitCtx(ctx, func(p *xkaapi.Proc) {
		xkaapi.Foreach(p, 0, 1<<30, func(*xkaapi.Proc, int, int) {})
	}).Wait()
	fmt.Println("cancelled job:", errors.Is(err, context.Canceled))

	// The runtime is still healthy after both failures.
	var again int64
	if err := rt.Run(func(p *xkaapi.Proc) { fib(p, &again, 20) }); err != nil {
		panic(err)
	}
	fmt.Println("still serving: fib(20) =", again)

	// 6. Serving jobs over HTTP. Package server wraps the same runtime in
	// a network front-end: requests become SubmitCtx jobs bound to the
	// request context (deadlines and client disconnects cancel the job).
	// Every endpoint is a row of one request pipeline (parse, shed, admit,
	// batch or submit, panic-retry, finish, reply): a bounded budget of
	// in-flight jobs fronted by a FIFO queue where over-budget requests
	// wait under their own deadline — 429 only when the queue itself is
	// full — and concurrent small /fib and /loop requests coalesce, up to
	// 8 per Config.BatchWindow, into one batched job (one submit, one
	// fan-out, per-request sub-results). Small means a kernel under about a
	// third of a millisecond — /fib n < 18, /loop n < 1 000 000; anything
	// larger (the /fib?n=20 below) has nothing to amortize and is submitted
	// at once as a job of its own. The 500µs default window holds a lone
	// small request ≈ 1 ms in an idle process: Go's netpoller rounds a
	// sub-millisecond timer sleep up. Config.SLO.P99 is the one latency
	// target the brownout controller holds every endpoint to. /stats publishes
	// p50/p90/p99 end-to-end and queue-wait latency per endpoint, and
	// per-job stats come back in every response. `xkserve serve` runs this
	// at the command line; here we mount it in-process.
	front := server.New(server.Config{Runtime: rt, Budget: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: front}
	go httpSrv.Serve(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/fib?n=20&timeout=2s")
	if err != nil {
		panic(err)
	}
	var rep struct {
		Result int64           `json:"result"`
		OK     bool            `json:"ok"`
		Job    xkaapi.JobStats `json:"job"`
	}
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	fmt.Printf("GET /fib?n=20 -> result=%d ok=%v (job executed %d tasks)\n",
		rep.Result, rep.OK, rep.Job.Executed)
	httpSrv.Shutdown(context.Background())
	front.Close() // stop the batch collectors once no handler can submit

	// 7. Deadline-aware bodies. Every task body can see its job's context
	// through Proc.Context: it carries the SubmitCtx deadline and values,
	// and is cancelled — with the failure as cause — the instant the job
	// fails for any reason (a sibling's panic, Job.Cancel, the deadline, a
	// client disconnect). Long kernels select on it, or hand it straight to
	// context-aware I/O, instead of only being skipped at the next task
	// boundary. One shared failure state machine (internal/jobfail) backs
	// this in every scheduler of this module — the same signal exists in
	// cilk (Worker.Context), tbbsched (Context.Ctx), gomp/komp
	// (TC.Context) and quark (InsertTaskCtx).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	blocks := 0
	err = rt.RunCtx(ctx2, func(p *xkaapi.Proc) {
		jctx := p.Context() // cancelled at the 50ms deadline
		for {
			select {
			case <-jctx.Done():
				return // stop early: the response window is gone
			case <-time.After(10 * time.Millisecond):
				blocks++ // one "block" of real work
			}
		}
	})
	fmt.Printf("deadline-aware job: processed %d blocks, err=%v\n",
		blocks, errors.Is(err, context.DeadlineExceeded))

	// 8. Scaling out with shards. Every Runtime is a fleet of scheduler
	// shards; the default is one, and one shard is one contention domain:
	// every submit crosses one inbox. WithShards(4) builds four shards
	// behind the load-aware router — same Submit/Run/Wait API, same type,
	// but each job lands on the least-loaded shard, and a shard that
	// backlogs sheds queued root jobs to idle siblings through
	// cross-shard stealing. ShardStats breaks the
	// counters down per shard; note that migrated jobs are counted where
	// they ran, so spawned == executed + cancelled balances on the
	// fleet-wide Stats, not per shard.
	fleet := xkaapi.New(xkaapi.WithShards(4), xkaapi.WithWorkers(4))
	defer fleet.Close()
	var jobs []*xkaapi.Job
	for client := 0; client < 8; client++ {
		var r int64
		jobs = append(jobs, fleet.Submit(func(p *xkaapi.Proc) { fib(p, &r, 18) }))
	}
	for _, j := range jobs {
		j.Wait()
	}
	fmt.Println(fleet) // xkaapi.Fleet{shards: 4, workers: 4, steal: true}
	for _, ss := range fleet.ShardStats() {
		fmt.Printf("  shard %d: executed=%d stolen_in=%d stolen_out=%d\n",
			ss.Shard, ss.Sched.Executed, ss.StolenIn, ss.StolenOut)
	}

	// 9. Fault injection (chaos). NewChaosInjector arms seeded injection
	// sites inside the scheduler — task panics, steal misses, worker
	// stalls, delayed deliveries — behind a nil-check fast path: a runtime
	// built without an injector pays one predictable branch per site. The
	// set of injected faults is a pure function of (scenario, seed), so a
	// failing run replays from its seed. A job hit by an injected panic
	// fails alone with a PanicError, exactly like the real panic of
	// section 5; the pool survives, and Counts reports what actually
	// fired. `xkserve serve -chaos stall+panic:7 -panic-retries 8` drives
	// the same harness through the HTTP front-end, which then resubmits
	// panicked jobs server-side and reports degradation on /healthz.
	inj := xkaapi.NewChaosInjector(xkaapi.ChaosScenario{Seed: 7, TaskPanic: 0.002})
	crt := xkaapi.New(xkaapi.WithWorkers(4), xkaapi.WithChaos(inj))
	survived, injected := 0, 0
	for attempt := 0; attempt < 50; attempt++ {
		var r int64
		err := crt.Run(func(p *xkaapi.Proc) { fib(p, &r, 10) })
		var pe *xkaapi.PanicError
		switch {
		case err == nil:
			survived++
		case errors.As(err, &pe):
			injected++ // pe names the injected site and sequence number
		default:
			panic(err)
		}
	}
	crt.Close()
	fmt.Printf("chaos: %d/50 jobs ok, %d hit an injected panic (%s)\n",
		survived, injected, inj.Counts())
}
