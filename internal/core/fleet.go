//xk:hotpath — the fleet router runs once per submitted job, between the
// client and a shard inbox: the placement scan and the cross-shard steal
// probe must stay free of locks, channels and formatting. The deliberate
// slow paths (drain, the failure summary, String) are marked //xk:coldpath
// below.

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// FleetConfig parameterizes a Fleet of Runtime shards.
type FleetConfig struct {
	// Shards is the number of Runtime replicas. Zero or negative selects 1.
	Shards int
	// ShardSize is the worker count per shard. Zero or negative selects
	// runtime.GOMAXPROCS(0), as Config.Workers does.
	ShardSize int
	// NoSteal disables the cross-shard steal path, leaving only the router
	// (ablation: pure least-load placement). A 1-shard fleet never steals.
	NoSteal bool
	// Runtime is the per-shard template: aggregation and chaos apply to
	// every shard. Workers is overridden by ShardSize.
	Runtime Config
}

// Fleet is N Runtime shards behind a load-aware router: each submitted job
// is placed on the least-loaded shard (live roots + queued inbox depth),
// and an idle shard's workers pull queued roots from a loaded sibling's
// inbox as the slow-path rebalancer — the same cooperative stealing the
// in-shard scheduler runs, lifted one level up. A shard whose workers are
// all stuck never sees its load fall, so the router already avoids it and
// its siblings drain its backlog: no watchdog is needed. A Fleet is the one
// pool shape clients (the xkaapi facade and everything above it) program
// against: a plain pool is a fleet of one shard, where route returns that
// shard and stealing is off — nothing fleet-specific is paid. Create one
// with NewFleet.
type Fleet struct {
	cfg     FleetConfig
	shards  []*Runtime
	noSteal bool
	rr      atomic.Uint32 // rotating scan origin: spreads ties and steal probes

	closeMu sync.Mutex // serializes Close; shard flags flip before any drain
	closed  bool
}

// ShardStats describes one shard of a Fleet for per-shard monitoring: where
// the router placed work (LiveRoots, Sched.Spawned), where work actually ran
// (Sched.Executed), and how much the cross-shard steal path migrated
// (StolenIn/StolenOut). With stealing enabled the quiescent
// Spawned == Executed + Cancelled balance holds fleet-wide, not per shard:
// a migrated root is spawned on its home shard and executed where it was
// stolen to.
type ShardStats struct {
	Shard     int   // shard index in [0, Shards)
	Workers   int   // workers of this shard
	InboxLen  int64 // roots queued in the shard's inbox, not yet claimed
	LiveRoots int64 // roots accepted by this shard and not yet finished
	StolenIn  int64 // roots this shard's workers pulled from sibling inboxes
	StolenOut int64 // roots of this shard claimed by sibling shards

	Sched Stats // the shard's scheduler counters
}

// NewFleet builds the shards and starts their workers.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg.Shards = max(cfg.Shards, 1)
	cfg.Runtime.Workers = cfg.ShardSize
	f := &Fleet{cfg: cfg, noSteal: cfg.NoSteal || cfg.Shards == 1}
	f.shards = make([]*Runtime, cfg.Shards)
	for i := range f.shards {
		f.shards[i] = newRuntime(cfg.Runtime, f, i)
	}
	// Two-phase startup: every shard is constructed and published in
	// f.shards before any worker runs, because a worker may hit the
	// cross-shard steal path — which scans the sibling slice — on its very
	// first scheduling round.
	for _, s := range f.shards {
		s.start()
	}
	return f
}

// Shards returns the number of Runtime replicas.
func (f *Fleet) Shards() int { return len(f.shards) }

// NumWorkers returns the total worker count across all shards.
func (f *Fleet) NumWorkers() int {
	n := 0
	for _, s := range f.shards {
		n += len(s.workers)
	}
	return n
}

// route picks the least-loaded shard for one submission, scanning from a
// rotating origin so equal loads spread across shards instead of piling on
// shard 0. The scan short-circuits on a load-0 shard: it cannot lose.
func (f *Fleet) route() *Runtime {
	n := len(f.shards)
	if n == 1 {
		return f.shards[0]
	}
	start := int(f.rr.Add(1) % uint32(n))
	var best *Runtime
	var bestLoad int64
	for i := 0; i < n; i++ {
		s := f.shards[(start+i)%n]
		if l := s.load(); best == nil || l < bestLoad {
			best, bestLoad = s, l
			if bestLoad == 0 {
				break
			}
		}
	}
	return best
}

// place submits fn on the chosen shard, then — when the shard is already
// saturated (queued backlog and no idle worker of its own) — wakes a parked
// worker on an idle sibling so the cross-shard steal path starts pulling
// the backlog over without waiting for a sibling's next natural wake-up.
func (f *Fleet) place(rt *Runtime, ctx context.Context, fn func(*Worker)) *Job {
	j := rt.SubmitCtx(ctx, fn)
	if !f.noSteal && rt.inbox.Size() > 0 && !rt.park.HasIdle() {
		f.nudge(rt)
	}
	return j
}

// nudge wakes one parked worker on the first idle sibling of hot.
func (f *Fleet) nudge(hot *Runtime) {
	for _, s := range f.shards {
		if s != hot && s.park.HasIdle() {
			s.maybeWake()
			return
		}
	}
}

// Submit enqueues fn as an independent root job on the least-loaded shard
// and returns its handle immediately; it is SubmitCtx with
// context.Background(). See Runtime.Submit for the submission semantics —
// rejection with a pre-failed ErrClosed Job once the fleet is closing, the
// MPSC inbox path — which hold per shard.
func (f *Fleet) Submit(fn func(*Worker)) *Job {
	return f.SubmitCtx(context.Background(), fn)
}

// SubmitCtx places fn on the least-loaded shard, bound to ctx.
func (f *Fleet) SubmitCtx(ctx context.Context, fn func(*Worker)) *Job {
	return f.place(f.route(), ctx, fn)
}

// RunRoot is Submit followed by Job.Wait.
func (f *Fleet) RunRoot(fn func(*Worker)) error {
	return f.Submit(fn).Wait()
}

// Wait blocks until every job submitted to any shard has completed and
// returns the joined drain errors of all shards (see Runtime.Wait).
func (f *Fleet) Wait() error {
	var errs []error
	for _, s := range f.shards {
		if err := s.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close drains every shard, then stops and joins all their workers. The
// flip phase runs first: every shard's closing flag is raised — in the
// shard's own admission registry, the one its Submit checks — before any
// shard starts waiting for its drain. A Submit racing Close therefore
// either registered before the fleet-wide flip (every shard still drains
// it, wherever the router placed it) or is rejected with ErrClosed on
// whichever shard it was routed to; there is no window where an
// already-drained shard's sibling still accepts work. Cross-shard
// stealing stays live during the drain — a shard whose workers finished
// early keeps pulling its siblings' queued roots — because a shard's
// workers are only stopped after its own jobs drained.
//
//xk:coldpath
func (f *Fleet) Close() {
	f.closeMu.Lock()
	defer f.closeMu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, s := range f.shards {
		s.jobs.Close()
	}
	for _, s := range f.shards {
		s.finishClose()
	}
}

// CloseErr is Close plus a fleet-wide failure summary: nil if every job
// submitted to any shard succeeded, otherwise an error counting the failed
// jobs across the fleet and wrapping the first failure of the
// lowest-indexed failing shard.
//
//xk:coldpath
func (f *Fleet) CloseErr() error {
	f.Close()
	failed := 0
	var first error
	for _, s := range f.shards {
		n, err := s.failCount()
		if n > 0 && first == nil {
			first = err
		}
		failed += n
	}
	if failed == 0 {
		return nil
	}
	return fmt.Errorf("core: %d job(s) failed across %d shard(s); first: %w",
		failed, len(f.shards), first)
}

// Stats sums the scheduler counters over every shard. Migrated roots are
// counted where they ran, so the quiescent Spawned == Executed + Cancelled
// balance holds at this level (and only at this level; see ShardStats).
func (f *Fleet) Stats() Stats {
	var s Stats
	for _, sh := range f.shards {
		s.Add(sh.Stats())
	}
	return s
}

// ShardStats returns one entry per shard, in shard order.
func (f *Fleet) ShardStats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.shardStats()
	}
	return out
}

// String describes the fleet configuration.
//
//xk:coldpath
func (f *Fleet) String() string {
	return fmt.Sprintf("xkaapi.Fleet{shards: %d, workers: %d, steal: %v}",
		len(f.shards), f.NumWorkers(), !f.noSteal)
}

// stealRoot is the cross-shard slow path, called by a worker of rt that
// found no work at all locally (own deque, in-shard steal sweep and own
// inbox all empty): it pulls the oldest queued root from a loaded sibling's
// inbox, scanning siblings from a rotating origin. The stolen job stays
// registered with its home shard — finish, Wait and error accounting are
// untouched — only execution migrates (the root and, transitively, the
// subtree it spawns run on the thief's shard). Executed counters therefore
// show where work ran, which is what makes migration visible per shard.
func (rt *Runtime) stealRoot() *Task {
	f := rt.fleet
	if f == nil || f.noSteal {
		return nil
	}
	n := len(f.shards)
	start := int(f.rr.Add(1) % uint32(n))
	for i := 0; i < n; i++ {
		sib := f.shards[(start+i)%n]
		if sib == rt || sib.inbox.Size() == 0 {
			continue
		}
		if t := sib.inbox.Take(); t != nil {
			rt.stolenIn.Add(1)
			sib.stolenOut.Add(1)
			return t
		}
	}
	return nil
}

// siblingWork reports whether any sibling shard has queued roots a worker
// of rt could steal; the park-time abort scan includes it so a worker never
// goes to sleep while cross-shard work is already visible.
func (rt *Runtime) siblingWork() bool {
	f := rt.fleet
	if f == nil || f.noSteal {
		return false
	}
	for _, s := range f.shards {
		if s != rt && s.inbox.Size() > 0 {
			return true
		}
	}
	return false
}
