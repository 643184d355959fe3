// Package analysis is the module's own static-analysis tier: a small
// go/analysis-style framework plus the loader that type-checks packages
// offline, driven by cmd/xkvet and gated in CI via `make lint` (ci.sh
// runs it between `go vet` and the build). Four analyzers encode the
// concurrency invariants this runtime's performance claims rest on —
// properties stock vet cannot see because they are conventions of this
// codebase, not of Go — and a fifth keeps dead code from building up.
//
// # The analyzers
//
// jobfailsingleton — the failure/cancellation protocol (PanicError,
// first-error-wins, context fan-out) must have exactly one definition,
// internal/jobfail. A second `type PanicError` anywhere means someone
// re-grew a hand-rolled copy of the state machine. Re-exports must be
// the grouped alias form `type ( PanicError = jobfail.PanicError )`
// aliasing jobfail's type, so readers can grep for the convention.
// This analyzer replaces the shell grep tripwire ci.sh used to carry.
//
// taskctx — task and region bodies (functions with a worker parameter,
// and function literals passed to Spawn/Run/InsertTaskCtx/ParallelCtx
// and the other entrypoints) must not call context.Background or
// context.TODO, and must not shadow the supplied ctx with an unrelated
// context. Job cancellation reaches a body only through the context the
// job was given; a fresh root context silently opts the body out.
// Shadowing with a context derived from the original (context.WithTimeout
// et al.) is fine.
//
// hotpath — files that opt in with an `//xk:hotpath` pragma (the
// Chase–Lev deque, the worker scheduling loop, internal/latency) may not
// use sync.Mutex/RWMutex methods (including via embedding), channel
// sends/receives/selects, time.Sleep, fmt, or launch goroutines. These
// files' doc comments promise lock-freedom; the analyzer keeps the code
// honest as it evolves. A function that is a deliberate slow path can be
// exempted wholesale with `//xk:coldpath` in its doc comment.
//
// atomicpad — a struct holding atomics that is instantiated per-worker
// in a slice must carry a trailing `_ [N]byte` cache-line pad, or every
// worker's counter updates false-share one line and the "per-worker,
// uncontended" premise dies silently. It also checks that 64-bit
// sync/atomic calls on struct fields are 8-byte-aligned on 32-bit
// targets (computed with 386 sizes), the classic sync/atomic trap.
//
// unused — an unexported function or method that no non-test file of its
// package references is dead code: only a test, or nothing, still calls
// it. Methods match by name, so one reached only through an interface of
// the package is kept; exported identifiers are out of scope, since
// another package may call them.
//
// # Conventions
//
// A line can suppress one diagnostic deliberately with a trailing
// `//xk:allow(<analyzer>): reason` comment; the reason is mandatory in
// spirit — it is the reviewer-facing justification. `//xk:hotpath` is a
// file-level opt-in pragma (anywhere in a file's leading comments), and
// `//xk:coldpath` is a function-level opt-out used inside hotpath files.
//
// # Running it
//
//	make lint            # builds bin/xkvet once, runs it over ./...
//	go run ./cmd/xkvet -list
//	go run ./cmd/xkvet ./internal/core
//
// # Why a local framework
//
// The module is deliberately dependency-free, so golang.org/x/tools is
// not available. The Analyzer/Pass/Reportf API here mirrors
// go/analysis closely enough that porting an analyzer to the stock
// multichecker is mechanical; the only genuinely local pieces are the
// loader (load.go, `go list -export` + the gc importer, so packages
// type-check offline against the build cache) and the fixture harness
// (fixture.go, an analysistest-style `// want "regexp"` runner over
// testdata/src trees).
package analysis
