#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the build cache and the binary under .bench_build/,
# results and traces under benchmark/out/.
#
#   benchmark/run.sh run    [--seed N] [--seconds S]   all six workloads, untraced then traced;
#                                                      prints the named-metric table, writes out/result.json
#   benchmark/run.sh agree  [--seed N] [--seconds S]   two untraced sets of the same code; fails if an
#                                                      end-to-end metric differs by more than its bound
#   benchmark/run.sh seeds  [--seconds S]              seeds 1 and 2 side by side; not gated
#   benchmark/run.sh one --workload W --seed N --seconds S --trace 0|1
#                                                      one run; its last line is the result (BENCHMARK.json)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
cd "$root"

mode="${1:-}"
case "$mode" in
run | agree | seeds | one) shift ;;
*)
	echo "usage: benchmark/run.sh {run|agree|seeds|one} [flags]" >&2
	exit 2
	;;
esac

mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off
go build -C "$here" -o "$build/xkbench" .

if [ "$mode" = one ]; then
	exec "$build/xkbench" --out "$here/out" "$@"
fi
exec "$build/xkbench" --mode "$mode" --out "$here/out" "$@"
