package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SLO configures the brownout controller: one p99 latency target, applied
// to every endpoint's end-to-end request histogram. The zero P99 disables
// the controller. See brownout for the control loop.
type SLO struct {
	// P99 is the p99 target of every endpoint, measured over each
	// evaluation window (not the cumulative histogram, so the controller
	// reacts to the current regime, not the lifetime average). An endpoint
	// whose window is empty never violates it.
	P99 time.Duration
	// Tick is the evaluation period. Zero selects 250ms.
	Tick time.Duration
}

const (
	// brownoutEnterTicks consecutive violating windows enter degraded mode;
	// brownoutExitTicks consecutive windows below brownoutExitNum/Den of the
	// SLO leave it. Entering fast and leaving slow (and only well below the
	// target) is the hysteresis that keeps the controller from flapping on a
	// load hovering at the threshold.
	brownoutEnterTicks = 2
	brownoutExitTicks  = 3
	brownoutExitNum    = 4
	brownoutExitDen    = 5
	// brownoutQueueNum/Den: queue saturation — the admission queue at or
	// above 3/4 of its bound — counts as an SLO violation for every
	// endpoint, so the controller reacts before the queue overflows into
	// 429s rather than after.
	brownoutQueueNum = 3
	brownoutQueueDen = 4
	// brownoutBatchMul widens the coalescing window of a degraded endpoint:
	// bigger batches amortize more per-request overhead exactly when
	// capacity is short, trading latency the SLO has already lost anyway.
	brownoutBatchMul = 4
	// defaultBrownoutTick spaces the evaluation windows.
	defaultBrownoutTick = 250 * time.Millisecond
)

// setDegraded flips the endpoint's mode and applies the batch-window
// multiplier: degraded endpoints collect brownoutBatchMul× longer.
func (e *endpoint) setDegraded(v bool) {
	if e.degraded.Swap(v) == v || e.batch == nil {
		return
	}
	if v {
		e.batch.widen(brownoutBatchMul)
	} else {
		e.batch.widen(1)
	}
}

// brownout is the graceful-degradation controller: a control loop that
// compares each endpoint's windowed p99 (cumulative-histogram
// difference between ticks, see latency.Snapshot.Sub) and the admission
// queue's saturation against the configured SLO, and flips endpoints into
// degraded mode with hysteresis (brownoutEnterTicks in, brownoutExitTicks
// out at brownoutExitNum/Den of the target). Degraded endpoints shed
// oversized requests (503 + Retry-After, before a budget slot is taken)
// and widen their coalescing window; /healthz reports "degraded" with one
// reason line per cause while any endpoint is degraded.
type brownout struct {
	srv  *Server
	slo  time.Duration
	tick time.Duration

	degraded atomic.Bool // any endpoint degraded (the /healthz headline)

	mu      sync.Mutex
	reasons []string // one line per active cause, for /healthz and /stats

	stop chan struct{}
	done chan struct{}
}

func newBrownout(s *Server, cfg SLO) *brownout {
	b := &brownout{
		srv:  s,
		slo:  cfg.P99,
		tick: cfg.Tick,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if b.tick <= 0 {
		b.tick = defaultBrownoutTick
	}
	go b.loop()
	return b
}

func (b *brownout) loop() {
	defer close(b.done)
	t := time.NewTicker(b.tick)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.step()
		}
	}
}

func (b *brownout) close() {
	close(b.stop)
	<-b.done
}

// step evaluates one window. Split from the ticker loop so tests drive the
// controller deterministically, without real time.
func (b *brownout) step() {
	queueSat := false
	if qcap := b.srv.adq.maxQueue; qcap > 0 {
		queueSat = b.srv.adq.depth()*brownoutQueueDen >= qcap*brownoutQueueNum
	}
	var reasons []string
	any := false
	for _, e := range b.srv.eps {
		snap := e.stats.latency.Snapshot()
		win := snap.Sub(&e.prev)
		e.prev = *snap
		p99 := win.Quantile(0.99)

		// Queue saturation violates every endpoint's SLO: shedding one
		// endpoint while the shared queue drowns would be no brownout at
		// all. An empty window is evidence of recovery (no traffic, no
		// violation), not grounds to hold state forever.
		bad := queueSat || (win.Total > 0 && p99 > b.slo)
		good := !queueSat &&
			(win.Total == 0 || p99*brownoutExitDen <= b.slo*brownoutExitNum)
		switch {
		case bad:
			e.good = 0
			if e.bad++; e.bad >= brownoutEnterTicks {
				e.setDegraded(true)
			}
		case good:
			e.bad = 0
			if e.good++; e.good >= brownoutExitTicks {
				e.setDegraded(false)
			}
		default:
			// Between the exit fraction and the SLO: hold the current mode,
			// restart both streaks.
			e.bad, e.good = 0, 0
		}
		if e.degraded.Load() {
			any = true
			reasons = append(reasons, fmt.Sprintf("%s: window p99 %v against SLO %v",
				e.name, p99.Round(time.Millisecond), b.slo))
		}
	}
	if queueSat && any {
		reasons = append(reasons, fmt.Sprintf("admission queue >= %d/%d full (depth %d of %d)",
			brownoutQueueNum, brownoutQueueDen, b.srv.adq.depth(), b.srv.adq.maxQueue))
	}
	b.degraded.Store(any)
	b.mu.Lock()
	b.reasons = reasons
	b.mu.Unlock()
}

// reasonLines returns the current causes, one per line (empty when healthy).
func (b *brownout) reasonLines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.reasons...)
}

func (b *brownout) reasonText() string { return strings.Join(b.reasonLines(), "\n") }
