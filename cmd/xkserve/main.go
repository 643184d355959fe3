// Command xkserve is the X-Kaapi network front-end and its load generator.
//
// "xkserve serve" runs an HTTP server (package server) that maps each
// request onto one job of a shared X-Kaapi worker pool: per-request
// deadlines and client disconnects cancel the job through the runtime's
// context machinery, a bounded in-flight budget rejects over-budget bursts
// with 429 + Retry-After, and SIGTERM/SIGINT drain in-flight jobs before
// the pool is closed — the process exits 0 only if the drain was clean and
// the scheduler counters balance (spawned == executed + cancelled).
//
// "xkserve load" drives a running serve instance with a mixed workload
// (fib fork-join, adaptive loop, Cholesky dataflow), verifies every
// response payload, retries 429s with the advertised backoff, and reports
// throughput plus per-kind outcome counts. It exits non-zero on any
// unexpected error, which makes it the integration-test driver ci.sh uses.
//
// With -shards N the serve pool is split into N scheduler shards behind
// the runtime's load-aware router (xkaapi.WithShards): requests spread to
// the least-loaded shard, and idle shards steal queued roots from loaded
// siblings. /stats then carries a per-shard breakdown (shard_stats), and
// the load generator can verify it: -expect-shards asserts every shard
// executed work and that roots migrated between shards.
//
// Usage:
//
//	xkserve serve [-addr :8080] [-workers N] [-shards S] [-budget B]
//	              [-timeout 30s] [-drain-timeout 30s] [-max-fib 40]
//	              [-max-loop 50000000] [-max-chol 2048] [-queue 0]
//	              [-batch-window 0] [-chaos spec] [-slo 0]
//	              [-panic-retries 0]
//	xkserve load  [-addr http://127.0.0.1:8080] [-clients 8] [-jobs 60]
//	              [-fib 22] [-loop 200000] [-chol 192] [-nb 64]
//	              [-timeout 0] [-burst 0] [-expect-429] [-expect-drain]
//	              [-expect-shards 0]
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(runServe(os.Args[2:]))
	case "load":
		os.Exit(runLoad(os.Args[2:]))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "xkserve: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xkserve serve [flags]   run the HTTP front-end over one shared worker pool
  xkserve load  [flags]   drive a running serve with a verified mixed workload

run "xkserve serve -h" or "xkserve load -h" for the flags.`)
}
