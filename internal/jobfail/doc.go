// Package jobfail is the single definition of the job failure and
// cancellation protocol every scheduler in this module runs on. The X-Kaapi
// runtime (internal/core) and the three standalone comparators (cilk,
// tbbsched, gomp) intentionally differ in their scheduling cost models —
// that is the experiment of the paper's Fig. 1 — but they share one failure
// semantics, and before this package existed each of them carried its own
// hand-rolled copy of it. Four copies of a subtle concurrent protocol is a
// divergence risk, not an experimental variable, so the whole state machine
// lives here and the engines embed it.
//
// The protocol, in full:
//
//   - Panic capture. A panicking task body is recovered by its worker into a
//     *PanicError carrying the panic value and the stack of the panic site
//     (Capture must be called inside the deferred recover so the frames are
//     still live). The worker pool always survives a body panic.
//
//   - First error wins. State.Fail records the first failure — panic,
//     cancellation, or context error — and ignores the rest, including
//     failures arriving after the job finished (the state is sealed by
//     Finish). State.Failed is the lock-free fast-path flag the execution
//     hot path polls to decide whether to skip a body.
//
//   - Cancellation fan-out. Every state owns a context.Context derived from
//     the submission context (context.Background for plain submissions).
//     The instant the job fails — sibling panic, Cancel, parent deadline or
//     disconnect — that context is cancelled with the failure as its cause,
//     so any body blocked on State.Context().Done() (deadline-aware I/O,
//     long kernels) unblocks immediately. Parent cancellation is watcher-
//     free: Init arms a context.AfterFunc, Finish disarms it.
//
//   - Pre-failed jobs. A submission racing shutdown is not a panic:
//     State.Reject yields a handle whose Wait and Err report ErrClosed and
//     whose context is already cancelled, so services have one code path.
//
//   - Drain invariant. A failed job's remaining tasks are cancelled — their
//     bodies are skipped while the completion bookkeeping still runs — and
//     the Counters type is the accounting for that contract: at quiescence
//     every task created was either executed or cancelled
//     (Spawned == Executed + Cancelled), so a failed job always drains and
//     Wait always returns.
//
// The package is engine-agnostic: it knows nothing about deques, workers or
// task trees. Engines embed a State per failure domain (a job, a region, a
// QUARK run), call Fail from their panic barriers, consult Failed on their
// skip paths, and call Finish exactly once when the domain's bookkeeping
// has drained.
package jobfail
