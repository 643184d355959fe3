GO ?= go

# Tier-1 verify: everything must build and every package's tests must pass.
.PHONY: build test
build:
	$(GO) build ./...
test:
	$(GO) test ./...

# Race tier: the concurrency-critical packages under the race detector —
# the shared failure state machine (internal/jobfail), the scheduler core,
# the fault-injection harness (internal/chaos), the parallel algorithms
# that hammer it, the HTTP front-end, the public facade, and every paradigm
# layer embedding the jobfail protocol (cilk, gomp, komp, tbbsched, quark).
# -short keeps the stress tests at their trimmed sizes.
RACE_PKGS = . ./internal/jobfail ./internal/core ./internal/chaos ./par ./server ./cilk ./gomp ./komp ./tbbsched ./quark
.PHONY: race
race:
	$(GO) test -race -short $(RACE_PKGS)

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the module's own static analyzers (internal/analysis) through
# the cmd/xkvet multichecker: jobfailsingleton, taskctx, hotpath and
# atomicpad — the concurrency invariants stock vet cannot see. The binary
# is built once into bin/ and rebuilt only when its sources change, so CI
# can cache it.
XKVET = bin/xkvet
XKVET_SRCS = $(shell find cmd/xkvet internal/analysis -name '*.go' -not -path '*/testdata/*')
$(XKVET): $(XKVET_SRCS)
	@mkdir -p bin
	$(GO) build -o $(XKVET) ./cmd/xkvet
.PHONY: lint
lint: $(XKVET)
	./$(XKVET) ./...

# fmt-check fails if any file is not gofmt-clean (use `gofmt -w .` to fix).
# Analyzer fixtures under */testdata hold deliberately bad code and are
# exempt.
.PHONY: fmt-check
fmt-check:
	@unformatted=$$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: files need formatting:"; echo "$$unformatted"; exit 1; \
	fi

# bench-selftest builds, vets and tests the benchmark of record's own
# module (~5 s). benchmark/ is a separate Go module, so `go build ./...` and
# `go test ./...` at the root never compile it, yet it imports server and
# internal packages: this is the tier that notices when a change here
# breaks it.
.PHONY: bench-selftest
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the local CI entry point: static gates, tier-1, the race tier,
# the benchmark module's self-test and the serve/load integration pipeline.
.PHONY: check
check: fmt-check vet lint build test race bench-gate bench-selftest integration

# The packages of the micro-benchmark trajectory: the scheduler's per-task
# costs and the tile kernels' per-call costs.
BENCH_PKGS = ./internal/core ./internal/blas

.PHONY: bench
bench:
	$(GO) test -bench=. -benchtime=1x $(BENCH_PKGS)

# bench-json records the micro-benchmark trajectory: it runs the scheduler
# and kernel benchmarks with allocation counts and writes BENCH_<n>.json
# (next free n) via cmd/xkbenchjson, so perf is comparable PR to PR.
# Non-gating in CI.
# Time-based benchtime: iteration-count runs are dominated by warmup noise
# and would make the trajectory useless for spotting regressions.
# GOMAXPROCS is pinned to 1: every BENCH_<n>.json so far was recorded at
# P = 1, and rows are only comparable at the same P. The recorder is pinned
# too: the artifact's "gomaxprocs" field is the recorder's own.
.PHONY: bench-json
bench-json:
	GOMAXPROCS=1 $(GO) test -bench=. -benchtime=1s -benchmem -run='^$$' $(BENCH_PKGS) | GOMAXPROCS=1 $(GO) run ./cmd/xkbenchjson

# bench-gate is the gating benchmark smoke: a fast fixed-iteration run
# (-benchtime=100x, so it costs seconds per PR) whose allocs/op — which is
# deterministic, unlike container wall-clock — is enforced against the
# committed budgets in bench_gates.json by xkbenchjson's gate mode. A
# budget overrun or a deleted gated benchmark fails the build; ns/op drift
# beyond ns_warn_pct against the newest BENCH_<n>.json only warns. Budgets
# are calibrated at this exact benchtime: short runs amortize warm-up
# allocations (free-list slabs, pool fills, inbox growth) differently than
# the 1s bench-json runs do — and at GOMAXPROCS=1, which the target pins:
# with a second P, BenchmarkForEach's split path allocates (5–9 allocs/op
# against its budget of 0; finding those is a ROADMAP item), so unpinned the
# gate is red on any multi-core box before any change.
.PHONY: bench-gate
bench-gate:
	GOMAXPROCS=1 $(GO) test -bench=. -benchtime=100x -benchmem -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/xkbenchjson gate -gates bench_gates.json

# bench-diff compares the two most recent BENCH_<n>.json artifacts with
# xkbenchjson's diff mode and prints the per-benchmark delta table. The
# `-latest` flag makes xkbenchjson itself pick the pair by numeric index
# (a shell `sort -t_ -k2 -n` mis-orders once the suffix grows past one
# digit, e.g. BENCH_9.json vs BENCH_10.json). It is a report, not a gate:
# it exits 0 when there is nothing to compare and never fails on a
# regression — CI surfaces the table in the job summary so a regression
# is visible per PR, while the decision stays with the reviewer.
.PHONY: bench-diff
bench-diff:
	@$(GO) run ./cmd/xkbenchjson diff -latest

# integration drives the real network pipeline: build xkserve, start serve,
# run the verified mixed workload + backpressure probe against it (including
# the live /stats probe during an in-flight request), then SIGTERM mid-load
# and require a clean drain (exit 0, balanced counters).
.PHONY: integration
integration:
	./integration.sh
