#!/bin/sh
# CI entry point, and the single source of truth for what CI runs (the
# GitHub workflow in .github/workflows/ci.yml just invokes this script).
#
# Every gate is a Makefile target, run in the order `make check` runs them:
# static gates (gofmt, vet, vet for arm64, the xkvet analyzer suite), tier-1
# verify (build + full test suite), the race tiers (`race` over the
# concurrency-critical packages, `race-stress` for the un-shortened deque
# torture tests and fleet tests at GOMAXPROCS 1, 2 and 4, the comparators at
# the same counts, and the stress and seeded chaos runs), the gating
# benchmark allocation budgets (bench_gates.json),
# and the benchmark module's own vet + tests. The HTTP server needs no tier
# of its own: tier-1 runs cmd/xkserve's process tests. What this script adds
# is output capture for the workflow and a non-gating benchmark tier that
# records the perf trajectory as a BENCH_<n>.json artifact.
set -eu

echo "== gate: gofmt -l, go vet ./... (make fmt-check vet)"
make fmt-check vet

# On amd64 kern is chosen at init between FMA assembly and the portable Go
# kernel: only a non-amd64 build compiles kernel_generic.go.
echo "== gate: GOARCH=arm64 go vet ./... (make cross)"
make cross

# xkvet output also lands in a file so the GitHub workflow can lift the
# diagnostics into the job summary on failure.
XKVET_OUT="${TMPDIR:-/tmp}/xkvet.txt"
echo "== gate: xkvet analyzer suite (make lint)"
if make lint >"$XKVET_OUT" 2>&1; then
	cat "$XKVET_OUT"
else
	cat "$XKVET_OUT"
	echo "xkvet: analyzer violations (see above)" >&2
	exit 1
fi

echo "== tier-1: go build ./..., go test ./... (make build test)"
make build test

echo "== race tiers (make race race-stress)"
make race race-stress

# allocs/op is deterministic, unlike container wall-clock; the target pins
# GOMAXPROCS=1, where the budgets were calibrated. Timing drift only warns.
echo "== gate: benchmark allocation budgets (make bench-gate)"
make bench-gate

# benchmark/ is its own module: nothing above compiles it.
echo "== gate: benchmark of record builds and passes its tests (make bench-selftest)"
make bench-selftest

echo "== bench tier (non-gating): make bench-json"
if make bench-json; then
	echo "bench tier OK"
else
	echo "bench tier FAILED (non-gating, continuing)" >&2
fi

# The delta table is also written to a file so the GitHub workflow can lift
# it into the job summary without invoking the target a second time. Write
# first, then cat: piping through tee would hide make's exit status (POSIX
# sh has no pipefail) and make the failure branch unreachable.
BENCH_DIFF_OUT="${TMPDIR:-/tmp}/bench-diff.md"
echo "== bench diff (non-gating): make bench-diff"
if make bench-diff >"$BENCH_DIFF_OUT" 2>&1; then
	cat "$BENCH_DIFF_OUT"
	echo "bench diff OK"
else
	cat "$BENCH_DIFF_OUT"
	echo "bench diff FAILED (non-gating, continuing)" >&2
fi

echo "CI OK"
