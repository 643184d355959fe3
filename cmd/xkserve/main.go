// Command xkserve is the X-Kaapi network front-end.
//
// "xkserve serve" runs an HTTP server (package server) that maps each
// request onto one job of a shared X-Kaapi worker pool: per-request
// deadlines and client disconnects cancel the job through the runtime's
// context machinery, a bounded in-flight budget rejects over-budget bursts
// with 429 + Retry-After, and SIGTERM/SIGINT drain in-flight jobs before
// the pool is closed — the process exits 0 only if the drain was clean and
// the scheduler counters balance (spawned == executed + cancelled).
//
// It prints the address it bound ("serving on 127.0.0.1:41234"), so
// -addr 127.0.0.1:0 lets the kernel pick a free port.
//
// With -shards N the serve pool is split into N scheduler shards behind
// the runtime's load-aware router (xkaapi.WithShards): requests spread to
// the least-loaded shard, and idle shards steal queued roots from loaded
// siblings. /stats then carries a per-shard breakdown (shard_stats), and
// the exit report prints one line per shard.
//
// Usage:
//
//	xkserve serve [-addr :8080] [-workers N] [-shards S] [-budget B]
//	              [-queue 0] [-batch-window 0] [-timeout 30s]
//	              [-drain-timeout 30s] [-chaos spec] [-panic-retries 0]
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

run "xkserve serve -h" for the flags.`)
}
