package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"xkaapi"
	"xkaapi/server"
)

// runServe runs the HTTP front-end until SIGTERM/SIGINT, then drains:
// stop routing (healthz 503), refuse new work, wait for in-flight
// handlers, drain the pool, and verify the scheduler counters balance.
// The returned exit code is 0 only for a clean drain.
func runServe(args []string) int {
	fs := flag.NewFlagSet("xkserve serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "workers in the shared pool (plain goroutines, not locked OS threads; default one per P)")
	shards := fs.Int("shards", 1, "scheduler shards behind the load-aware router (the pool is always a fleet; 1 = one shard); workers are spread across shards, ceil(workers/shards) each")
	budget := fs.Int("budget", 0, "max in-flight jobs (0 = 2x workers)")
	queue := fs.Int("queue", 0, "admission queue depth: requests beyond the budget wait here under their deadline (0 = 4x budget, -1 = no queue)")
	batchWindow := fs.Duration("batch-window", 0, "coalescing window for small requests (/fib n < 18, /loop n < 1000000; larger ones never wait): concurrent ones within it, at most 8, are folded into one batched job (0 = 500µs default, which an idle process rounds up to about 1ms; -1ns = no batching)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	maxFib := fs.Int("max-fib", 0, "cap on fib request size (0 = default)")
	maxLoop := fs.Int("max-loop", 0, "cap on loop request size (0 = default)")
	maxChol := fs.Int("max-chol", 0, "cap on cholesky request order (0 = default)")
	chaosSpec := fs.String("chaos", "", "fault-injection scenario: named fragments joined with '+', optional ':<seed>' (panic, steal, stall, inbox, latency, all; e.g. stall+panic:7); empty = disabled")
	sloP99 := fs.Duration("slo", 0, "p99 latency SLO, applied to every endpoint: past it the brownout controller degrades gracefully (sheds oversized requests, widens batch windows, /healthz reports degraded); 0 = disabled")
	panicRetries := fs.Int("panic-retries", 0, "times a request's job is resubmitted after failing with a task panic (0 = a panic is a 500)")
	fs.Parse(args)

	inj, err := xkaapi.ParseChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkserve: bad -chaos spec: %v\n", err)
		return 1
	}
	rtOpts := []xkaapi.Option{xkaapi.WithWorkers(*workers)}
	if *shards > 1 {
		rtOpts = append(rtOpts, xkaapi.WithShards(*shards))
	}
	if inj != nil {
		// One injector drives the whole stack: the scheduler sites through
		// the runtime, the handler-latency site through the server config.
		rtOpts = append(rtOpts, xkaapi.WithChaos(inj))
	}
	rt := xkaapi.New(rtOpts...)
	srv := server.New(server.Config{
		Runtime:        rt,
		Budget:         *budget,
		QueueDepth:     *queue,
		BatchWindow:    *batchWindow,
		DefaultTimeout: *timeout,
		MaxFib:         *maxFib,
		MaxLoop:        *maxLoop,
		MaxChol:        *maxChol,
		SLO:            server.SLO{P99: *sloP99},
		PanicRetries:   *panicRetries,
		Chaos:          inj,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("xkserve: serving on %s (%d workers, %d shard(s), budget %d, queue %d, default timeout %v)\n",
		*addr, rt.Workers(), rt.Shards(), srv.Budget(), srv.QueueCap(), *timeout)
	if inj != nil {
		fmt.Printf("xkserve: chaos armed: %s (panic retries %d)\n", *chaosSpec, *panicRetries)
	}

	select {
	case <-ctx.Done():
		// Unregister the signal handler immediately: a second SIGTERM/SIGINT
		// during a long drain then kills the process with default semantics
		// instead of being swallowed.
		stop()
		fmt.Println("xkserve: signal received, draining (send again to force-kill)")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "xkserve: listener failed: %v\n", err)
		rt.Close()
		return 1
	}

	// Drain sequence: stop admitting (healthz goes 503 so load balancers
	// back off), let in-flight handlers finish via Shutdown, then drain the
	// pool and read the quiescent counters.
	srv.StartDrain()
	clean := true
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "xkserve: shutdown incomplete: %v\n", err)
		clean = false
	}
	srv.Close() // no handler can submit anymore: stop the batch collectors
	if err := rt.Wait(); err != nil {
		// Failures here were already reported per request; jobs failing
		// with cancellation during a drain are expected, anything else is
		// not. Surface the aggregate for the operator either way.
		fmt.Printf("xkserve: drained job failures (aggregated): %s\n", server.ErrorLine(err))
	}
	s := rt.Stats() // pool is quiescent now: counters balance exactly
	balanced := s.Spawned == s.Executed+s.Cancelled
	fmt.Printf("xkserve: scheduler spawned=%d executed=%d cancelled=%d panicked=%d steals=%d/%d combines=%d splits=%d parks=%d\n",
		s.Spawned, s.Executed, s.Cancelled, s.Panicked,
		s.StealHits, s.StealRequests, s.Combines, s.Splits, s.Parks)
	if !balanced {
		fmt.Fprintf(os.Stderr, "xkserve: counter imbalance: spawned=%d != executed=%d + cancelled=%d\n",
			s.Spawned, s.Executed, s.Cancelled)
		clean = false
	}
	if rt.Shards() > 1 {
		// Per-shard breakdown: executed shows where work ran, stolen_in/out
		// how much the cross-shard rebalancer migrated. The spawned balance
		// only holds at the fleet aggregate above, by design.
		for _, ss := range rt.ShardStats() {
			fmt.Printf("xkserve: shard %d/%d spawned=%d executed=%d cancelled=%d stolen_in=%d stolen_out=%d parks=%d\n",
				ss.Shard, rt.Shards(), ss.Sched.Spawned, ss.Sched.Executed, ss.Sched.Cancelled,
				ss.StolenIn, ss.StolenOut, ss.Sched.Parks)
		}
	}
	if inj != nil {
		// Per-site injection counts, so a chaos run's exit report shows
		// which failures the drain above survived.
		fmt.Printf("xkserve: chaos counts: %s\n", inj.Counts())
	}
	if err := rt.CloseErr(); err != nil {
		// The summary counts every failed job over the runtime's lifetime
		// (drain cancellations included) and shows the first failure.
		fmt.Printf("xkserve: lifetime job failures: %s\n", server.ErrorLine(err))
	}
	if clean {
		fmt.Println("xkserve: drained cleanly")
		return 0
	}
	return 1
}
