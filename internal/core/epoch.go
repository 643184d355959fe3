//xk:hotpath — the epoch check sits in the worker's scheduling loop and the
// bump sits behind the spawn path's maybeWake; xkvet rejects blocking or
// allocating constructs in this file.

package core

// The work-presence epoch cuts wasted steal probes on a mostly-idle pool.
// A worker whose steal sweep found every victim empty has learned a fact —
// "no sibling had work" — that stays true until somebody publishes work, so
// re-sweeping 2N victims every spin round before parking is pure waste (it
// is the dominant term in StealProbes on trickle workloads). Instead, the
// shard keeps an epoch counter that work publication bumps, and the worker
// records the epoch it read *before* an empty sweep: as long as the shard's
// epoch still equals the recorded one, the sweep's result is still current
// and the whole probe loop is skipped (counted in Stats.EpochSkips).
//
// The bump piggybacks on maybeWake/wakeAll and is gated the same way, on
// idle.Load() != 0: while nobody is parked-or-parking the spawn fast path
// pays nothing for the epoch, exactly as it pays nothing for the wake.
// That gate is also why the scheme stays live without bumping on every
// push:
//
//   - A parked-adjacent worker (some worker advertised idle) gets a bump
//     for every publication, so its cached sweep invalidates immediately.
//   - A still-spinning worker (not yet counted idle) may miss a bump, but
//     it invalidates its cache on every task it executes and, crucially,
//     whenever park returns — and park's final anyWork/siblingWork scan
//     observes the very work the missed bump advertised, aborts the park,
//     and sends the worker back to a full sweep. The skip can therefore
//     delay a steal by at most the few Gosched spin rounds before park,
//     never strand visible work.
//
// Reading the epoch before the sweep (not after) closes the publish-during-
// sweep race: work pushed mid-sweep bumps the epoch past the recorded
// value, so the next round sweeps again instead of skipping.

// bumpWorkEpoch advertises that work was published while some worker was
// idle. One uncontended RMW, and only on the idle path — see above.
func (rt *Runtime) bumpWorkEpoch() {
	rt.workEpoch.Add(1)
}

// sweepSkippable reports whether the worker's last recorded empty sweep is
// still current, i.e. no work has been published (toward an idle pool)
// since it was taken. Owner only.
func (w *Worker) sweepSkippable() bool {
	return w.sweepValid && w.rt.workEpoch.Load() == w.sweepEpoch
}

// noteEmptySweep records that a full steal sweep, begun when the shard
// epoch was e, found no victim with work. Owner only.
func (w *Worker) noteEmptySweep(e uint64) {
	w.sweepEpoch = e
	w.sweepValid = true
}
