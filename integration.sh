#!/bin/sh
# Integration tier: the xkserve serve/load pipeline over real HTTP.
#
# Phase 1 runs the verified mixed workload (fib fork-join + adaptive loop +
# Cholesky dataflow) plus an over-capacity burst that must be answered with
# 429s once budget AND admission queue are full. Phase 2 is the burst-SLO
# probe: a 4x-budget burst of simultaneous /fib requests, fired with no
# retry, must complete >= 90% as verified 200s within the SLO — the
# admission queue converts what used to be instant 429s into completed
# responses — and /stats must publish the per-endpoint latency quantiles.
# Between the two, the coalescing rule: waves of simultaneous full-size
# /loop and /fib requests (n at or above the row's coalesceBelow) must each
# be a job of their own — no batch field in any reply, no batch counter of
# /stats moved. Phase 3 asserts /stats publishes live
# task counters: while /loop requests are in flight, the scheduler's
# Executed count must advance (the per-worker counters are padded atomics,
# so mid-flight reads are exact and race-free). Phase 4 SIGTERMs the server
# mid-load: it must drain in-flight jobs and exit 0 with balanced scheduler
# counters (spawned == executed + cancelled), while the load generator
# tolerates the drain. Phase 5 runs a second, sharded server (-shards 4):
# the mixed workload must spread over every shard (non-zero executed per
# shard in /stats), the same load must migrate roots via cross-shard
# stealing (stolen_in > 0), and the fleet must drain cleanly on
# SIGTERM with the aggregate counters balanced. Phase 6 is the chaos
# exercise: a third 4-shard server runs with seeded scheduler fault
# injection armed (worker stalls, task/loop panics) and a panic-retry
# budget that must absorb every injected crash. Under a sustained mixed
# load every response must still verify (zero 500s), and the SIGTERM drain
# must balance with nonzero task_panics in the chaos exit report.
set -eu

ADDR=127.0.0.1:18097
ADDR2=127.0.0.1:18098
ADDR3=127.0.0.1:18099
BIN="${TMPDIR:-/tmp}/xkserve-ci"
SERVE_LOG="${TMPDIR:-/tmp}/xkserve-ci-serve.log"
SERVE2_LOG="${TMPDIR:-/tmp}/xkserve-ci-serve2.log"
SERVE3_LOG="${TMPDIR:-/tmp}/xkserve-ci-serve3.log"
LOAD_LOG="${TMPDIR:-/tmp}/xkserve-ci-load.log"
LOAD3_LOG="${TMPDIR:-/tmp}/xkserve-ci-load3.log"
WAVE_DIR="${TMPDIR:-/tmp}/xkserve-ci-wave"

go build -o "$BIN" ./cmd/xkserve

"$BIN" serve -addr "$ADDR" -budget 4 -timeout 30s >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE2_PID=
SERVE3_PID=
trap 'kill "$SERVE_PID" $SERVE2_PID $SERVE3_PID 2>/dev/null || true; rm -rf "$WAVE_DIR"' EXIT

# Budget 4, queue 16 (the 4x default): a cholesky burst of 24 overflows
# both (4 running + 16 queued) and must see 429s for the remainder — as
# long as no request finishes before the last one arrives. The 24 writes
# land within a few milliseconds, so the burst asks for the benchmark of
# record's order (n=1024 nb=128, tens of milliseconds each with the whole
# pool to itself, more with four in flight): the overflow then follows from
# the admission arithmetic, not from how fast the kernels are. With the
# mixed workload's 0.4 ms requests the burst saw no 429 one run in ten.
echo "== integration: over-capacity backpressure burst"
"$BIN" load -addr "http://$ADDR" -clients 0 -jobs 0 \
	-chol 1024 -nb 128 -burst 24 -expect-429

echo "== integration: mixed workload"
"$BIN" load -addr "http://$ADDR" -clients 6 -jobs 12 \
	-fib 20 -loop 100000 -chol 128 -nb 32

# 4x-budget simultaneous /fib requests, no retry: the admission queue must
# absorb the whole burst (16 = 4 slots + 12 of the 16 queue places) within
# the SLO, where the pre-queue server answered instant 429s.
echo "== integration: queued admission absorbs a 4x-budget fib burst within SLO"
"$BIN" load -addr "http://$ADDR" -clients 0 -jobs 0 \
	-fib 24 -fib-burst 16 -burst-slo 10s -burst-min-ok 0.9

echo "== integration: full-size /loop and /fib requests skip the batch window"
# Eight simultaneous requests per wave (4 run, 4 queue): were they sent
# through the batcher, the ones admitted together would coalesce and the
# endpoint's batches/batched counters would move. Every reply must be a
# verified 200 that rode no batch.
batch_counters() {
	curl -s "http://$ADDR/stats" | grep -o '"batche[sd]": *[0-9]*' | tr '\n' ' '
}
mkdir -p "$WAVE_DIR"
for path in "loop?n=4000000" "fib?n=22"; do
	BEFORE=$(batch_counters)
	WAVE_PIDS=
	for i in 1 2 3 4 5 6 7 8; do
		curl -sf "http://$ADDR/$path" >"$WAVE_DIR/$i.json" &
		WAVE_PIDS="$WAVE_PIDS $!"
	done
	for pid in $WAVE_PIDS; do
		wait "$pid" || {
			echo "integration: a /$path request of the wave was not a 200" >&2
			exit 1
		}
	done
	for i in 1 2 3 4 5 6 7 8; do
		if ! grep -q '"ok": true' "$WAVE_DIR/$i.json" || grep -q '"batch":' "$WAVE_DIR/$i.json"; then
			echo "integration: /$path reply is unverified or rode a batch:" >&2
			cat "$WAVE_DIR/$i.json" >&2
			exit 1
		fi
	done
	AFTER=$(batch_counters)
	if [ -z "$BEFORE" ] || [ "$BEFORE" != "$AFTER" ]; then
		echo "integration: batch counters moved across the /$path wave: $BEFORE -> $AFTER" >&2
		exit 1
	fi
done
rm -rf "$WAVE_DIR"
echo "direct path OK (batch counters: $AFTER)"

echo "== integration: /stats publishes per-endpoint latency quantiles + queue histograms"
STATS=$(curl -s "http://$ADDR/stats")
for key in p50_ns p99_ns queue_wait queue_depth server_cancelled; do
	if ! printf '%s' "$STATS" | grep -q "\"$key\""; then
		echo "integration: /stats missing $key" >&2
		exit 1
	fi
done

echo "== integration: /stats must publish live executed counts mid-flight"
# The scheduler's Executed counter in /stats (the only "Executed" key in the
# reply; endpoint aggregates use task_executed) must be non-zero and growing
# while /loop work is in flight — before this PR the task-path counters were
# plain ints and reported as zero until the pool drained.
# A transiently failing sample (curl error, missing key) must not abort the
# script under set -e; the poll loop below retries, so report empty instead.
stats_executed() {
	curl -s "http://$ADDR/stats" | grep -o '"Executed": *[0-9]*' | grep -o '[0-9]*$' || true
}
BASE=$(stats_executed)
BASE=${BASE:-0}
(
	i=0
	while [ "$i" -lt 40 ]; do
		curl -s "http://$ADDR/loop?n=50000000" >/dev/null || true
		i=$((i + 1))
	done
) &
STREAM_PID=$!
LIVE_OK=0
while kill -0 "$STREAM_PID" 2>/dev/null; do
	NOW=$(stats_executed)
	if [ -n "${NOW:-}" ] && [ "$NOW" -gt "$BASE" ]; then
		LIVE_OK=1
		break
	fi
	sleep 0.05
done
kill "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
if [ "$LIVE_OK" -ne 1 ]; then
	echo "integration: /stats never showed live executed counts during in-flight /loop" >&2
	exit 1
fi
echo "live /stats OK (executed $BASE -> $NOW while /loop in flight)"

echo "== integration: SIGTERM mid-load must drain cleanly"
"$BIN" load -addr "http://$ADDR" -clients 6 -jobs 500 -chol 256 -nb 32 \
	-expect-drain >"$LOAD_LOG" 2>&1 &
LOAD_PID=$!
sleep 1
kill -TERM "$SERVE_PID"
SERVE_STATUS=0
wait "$SERVE_PID" || SERVE_STATUS=$?
wait "$LOAD_PID" || {
	echo "integration: load generator failed during drain:" >&2
	cat "$LOAD_LOG" >&2
	exit 1
}
cat "$SERVE_LOG"
if [ "$SERVE_STATUS" -ne 0 ]; then
	echo "integration: serve exited $SERVE_STATUS (want 0: clean drain)" >&2
	exit 1
fi
grep -q "drained cleanly" "$SERVE_LOG"

echo "== integration: sharded server (-shards 4): placement spreads, overload migrates"
"$BIN" serve -addr "$ADDR2" -shards 4 -workers 8 -budget 32 -timeout 30s >"$SERVE2_LOG" 2>&1 &
SERVE2_PID=$!
# Mixed load spreads across shards via least-load routing, and whichever
# of the four 2-worker shards runs dry first pulls the others' queued roots
# over. -expect-shards 4 fails the load run unless /stats shows 4 shards,
# every shard executing, and at least one cross-shard steal.
"$BIN" load -addr "http://$ADDR2" -clients 8 -jobs 24 \
	-fib 20 -loop 100000 -chol 128 -nb 32 -expect-shards 4
kill -TERM "$SERVE2_PID"
SERVE2_STATUS=0
wait "$SERVE2_PID" || SERVE2_STATUS=$?
cat "$SERVE2_LOG"
if [ "$SERVE2_STATUS" -ne 0 ]; then
	echo "integration: sharded serve exited $SERVE2_STATUS (want 0: clean drain)" >&2
	exit 1
fi
grep -q "drained cleanly" "$SERVE2_LOG"
# The per-shard exit report must be present and name every shard.
grep -q "shard 3/4" "$SERVE2_LOG"

echo "== integration: chaos: injected scheduler faults, zero 500s"
# Fixed seed: worker stalls and task/loop panics, absorbed by
# -panic-retries so the answer stream stays clean. Request sizes stay small
# so the per-attempt panic probability times the retry budget keeps the
# failure odds negligible: the load run verifies every response, so a
# single 500 fails the phase.
"$BIN" serve -addr "$ADDR3" -shards 4 -workers 8 -budget 128 -timeout 30s \
	-chaos stall+panic:7 -panic-retries 20 >"$SERVE3_LOG" 2>&1 &
SERVE3_PID=$!
"$BIN" load -addr "http://$ADDR3" -clients 12 -jobs 400 \
	-fib 6 -loop 3000000 -chol 64 -nb 32 -retries 3 >"$LOAD3_LOG" 2>&1 || {
	echo "integration: chaos load failed (an injected fault leaked into a response?):" >&2
	cat "$LOAD3_LOG" >&2
	cat "$SERVE3_LOG" >&2
	exit 1
}
cat "$LOAD3_LOG"
kill -TERM "$SERVE3_PID"
SERVE3_STATUS=0
wait "$SERVE3_PID" || SERVE3_STATUS=$?
trap - EXIT
cat "$SERVE3_LOG"
if [ "$SERVE3_STATUS" -ne 0 ]; then
	echo "integration: chaos serve exited $SERVE3_STATUS (want 0: clean drain, counters balanced)" >&2
	exit 1
fi
grep -q "drained cleanly" "$SERVE3_LOG"
grep -q "chaos counts:" "$SERVE3_LOG"
# The injected panics must actually have fired (and been survived).
if grep -q "task_panics=0 " "$SERVE3_LOG"; then
	echo "integration: chaos run fired no task panics — injection not reaching the scheduler" >&2
	exit 1
fi

rm -f "$SERVE_LOG" "$SERVE2_LOG" "$SERVE3_LOG" "$LOAD_LOG" "$LOAD3_LOG" "$BIN"
echo "integration OK"
