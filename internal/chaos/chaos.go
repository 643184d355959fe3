// Package chaos is the runtime's deterministic fault-injection harness.
//
// An *Injector is compiled into the scheduler behind a nil-check fast path: a pool built without one pays a single predictable
// branch per injection site, nothing else. With an injector installed, each
// site draws a decision from a seeded hash stream (internal/xrand mixing, no
// locks, no allocation), so a failing run replays from its seed: the n-th
// probe of a site always makes the same call for the same seed, whichever
// worker happens to reach it.
//
// What is deterministic — and what is not. Each site consumes a private,
// atomically numbered sequence of decisions, so the *set* of injected
// failures (how many, at which sequence numbers) is a pure function of
// (Scenario, seed). Which goroutine draws sequence number n, and at what
// wall-clock moment, still depends on scheduling — the harness makes the
// fault pattern reproducible, not the interleaving.
//
// Sites:
//
//   - task panic: runBody replaces a task body with a panic
//   - loop panic: an adaptive-loop chunk panics before running its body
//   - steal fail: a steal probe is forced to miss its victim
//   - worker stall: a worker pauses before its next scheduling round
//   - inbox delay: delivery of a submitted root into the shard inbox is
//     deferred
//
// Scenarios come from a Scenario struct (tests) or from Parse
// ("panic+stall:42", the -chaos flag of xkserve serve).
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site enumerates the injection points. The values are stable: they salt the
// per-site decision streams, so reordering them changes every seeded run.
type Site int

const (
	SiteTaskPanic Site = iota
	SiteLoopPanic
	SiteStealFail
	SiteWorkerStall
	SiteInboxDelay
	numSites
)

// String names the site the way counters and reports spell it.
func (s Site) String() string {
	switch s {
	case SiteTaskPanic:
		return "task_panics"
	case SiteLoopPanic:
		return "loop_panics"
	case SiteStealFail:
		return "steal_fails"
	case SiteWorkerStall:
		return "worker_stalls"
	case SiteInboxDelay:
		return "inbox_delays"
	}
	return "unknown"
}

// Pulse is a probabilistic delay: with probability Prob the site sleeps For.
type Pulse struct {
	Prob float64
	For  time.Duration
}

// Scenario is the full fault configuration of one Injector. The zero value
// injects nothing (but still pays the decision draws); a nil *Injector is
// the true off switch.
type Scenario struct {
	// Seed drives every decision stream. Zero selects 1.
	Seed uint64
	// TaskPanic is the probability a task body is replaced by a panic.
	TaskPanic float64
	// LoopPanic is the probability an adaptive-loop chunk panics before
	// executing its iterations (the split/extract boundary of ForEach).
	LoopPanic float64
	// StealFail is the probability a steal probe is forced to miss.
	StealFail float64
	// WorkerStall pauses a worker between scheduling rounds.
	WorkerStall Pulse
	// InboxDelay defers delivery of a submitted root into its shard inbox.
	InboxDelay Pulse
}

// site is one injection point's state: a decision sequence number and a hit
// counter, each on its own cache line so concurrent workers drawing
// decisions do not false-share.
type site struct {
	seq  atomic.Uint64
	_    [56]byte
	hits atomic.Uint64
	_    [56]byte
}

// Injector evaluates a Scenario. All methods are safe for concurrent use;
// every decision method on a nil receiver would crash, so callers gate each
// site with a nil check — that check is the whole disabled-path cost.
type Injector struct {
	sc    Scenario
	seed  uint64
	sites [numSites]site
}

// New builds an injector for sc.
func New(sc Scenario) *Injector {
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{sc: sc, seed: seed}
}

// Scenario returns the configuration the injector was built with (with the
// effective seed resolved).
func (in *Injector) Scenario() Scenario {
	sc := in.sc
	sc.Seed = in.seed
	return sc
}

// decide draws the next decision of s and reports whether it fires with
// probability p. The draw is one xorshift-quality mix of (seed, site,
// sequence number): allocation-free, lock-free, and identical for identical
// seeds regardless of which goroutine asks.
func (in *Injector) decide(s Site, p float64) bool {
	if p <= 0 {
		return false
	}
	n := in.sites[s].seq.Add(1)
	x := in.seed ^ (uint64(s)+1)*0xA24BAED4963EE407
	x += n * 0x9E3779B97F4A7C15
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	x *= 2685821657736338717
	if float64(x>>11)/(1<<53) >= p {
		return false
	}
	in.sites[s].hits.Add(1)
	return true
}

// InjectedPanic is the value chaos-injected panics throw; it records which
// site fired and its decision sequence number, so a PanicError in a log
// points back at the exact injected fault.
type InjectedPanic struct {
	Site Site
	Seq  uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("chaos: injected %s #%d", p.Site, p.Seq)
}

// TaskPanic reports whether the next task body should panic, and with what
// value.
func (in *Injector) TaskPanic() (any, bool) {
	if !in.decide(SiteTaskPanic, in.sc.TaskPanic) {
		return nil, false
	}
	return InjectedPanic{SiteTaskPanic, in.sites[SiteTaskPanic].hits.Load()}, true
}

// LoopPanic reports whether the next adaptive-loop chunk should panic.
func (in *Injector) LoopPanic() (any, bool) {
	if !in.decide(SiteLoopPanic, in.sc.LoopPanic) {
		return nil, false
	}
	return InjectedPanic{SiteLoopPanic, in.sites[SiteLoopPanic].hits.Load()}, true
}

// StealFail reports whether the next steal probe is forced to miss.
func (in *Injector) StealFail() bool {
	return in.decide(SiteStealFail, in.sc.StealFail)
}

// WorkerStall returns how long the asking worker should pause before its
// next scheduling round (0: no stall this time).
func (in *Injector) WorkerStall() time.Duration {
	if !in.decide(SiteWorkerStall, in.sc.WorkerStall.Prob) {
		return 0
	}
	return in.sc.WorkerStall.For
}

// InboxDelay returns how long delivery of the next submitted root should be
// deferred (0: deliver immediately).
func (in *Injector) InboxDelay() time.Duration {
	if !in.decide(SiteInboxDelay, in.sc.InboxDelay.Prob) {
		return 0
	}
	return in.sc.InboxDelay.For
}

// Counts is a snapshot of how many times each site actually fired.
type Counts struct {
	TaskPanics   uint64
	LoopPanics   uint64
	StealFails   uint64
	WorkerStalls uint64
	InboxDelays  uint64
}

// Counts snapshots the per-site injection counters.
func (in *Injector) Counts() Counts {
	return Counts{
		TaskPanics:   in.sites[SiteTaskPanic].hits.Load(),
		LoopPanics:   in.sites[SiteLoopPanic].hits.Load(),
		StealFails:   in.sites[SiteStealFail].hits.Load(),
		WorkerStalls: in.sites[SiteWorkerStall].hits.Load(),
		InboxDelays:  in.sites[SiteInboxDelay].hits.Load(),
	}
}

// String renders the counters as the one-line report serve prints at exit.
func (c Counts) String() string {
	return fmt.Sprintf(
		"task_panics=%d loop_panics=%d steal_fails=%d worker_stalls=%d inbox_delays=%d",
		c.TaskPanics, c.LoopPanics, c.StealFails, c.WorkerStalls, c.InboxDelays)
}

// Named scenario fragments for Parse. Probabilities are tuned for a loaded
// server: frequent enough that a few seconds of traffic observes every
// configured site, rare enough that bounded retries keep requests succeeding.
var fragments = map[string]func(*Scenario){
	"panic": func(sc *Scenario) { sc.TaskPanic = 0.002; sc.LoopPanic = 0.002 },
	"steal": func(sc *Scenario) { sc.StealFail = 0.2 },
	"stall": func(sc *Scenario) { sc.WorkerStall = Pulse{Prob: 0.002, For: 5 * time.Millisecond} },
	"inbox": func(sc *Scenario) { sc.InboxDelay = Pulse{Prob: 0.05, For: 2 * time.Millisecond} },
}

// Parse builds an injector from a -chaos flag value: one or more named
// fragments joined with "+", optionally followed by ":<seed>".
//
//	panic:42            task+loop panics, seed 42
//	stall+panic:7       combined scenario, seed 7
//	all                 every fragment, default seed 1
//
// An empty spec or "off" returns (nil, nil): chaos disabled.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	var sc Scenario
	names := spec
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		names = spec[:i]
		seed, err := strconv.ParseUint(spec[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad seed %q: %v", spec[i+1:], err)
		}
		sc.Seed = seed
	}
	for _, name := range strings.Split(names, "+") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, f := range fragments {
				f(&sc)
			}
			continue
		}
		f, ok := fragments[name]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown scenario %q (have panic, steal, stall, inbox, all)", name)
		}
		f(&sc)
	}
	return New(sc), nil
}
