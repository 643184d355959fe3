package server

import (
	"context"
	"sync/atomic"
	"time"

	"xkaapi"
)

// batchItem carries one admitted request into a batcher: its problem size,
// its request context (checked before the item's subtree is spawned, so a
// dead request costs the batch nothing), and the channel its share of the
// batch's result comes back on. done is buffered, so result delivery never
// blocks on a request that already gave up.
type batchItem struct {
	n    int
	ctx  context.Context
	done chan result
}

// batcher coalesces concurrent small requests — n below the row's
// coalesceBelow; the pipeline sends nothing else here — into one batched root
// job, in the channel-fed count-or-timeout style: the collector goroutine
// takes the first item, gathers whatever else is already pending plus
// anything arriving within the window (up to max items), and hands the
// batch to run. run dispatches the batch job asynchronously, so collection
// never stalls behind execution — while one batch computes, the next one
// fills.
//
// The point is amortization: N requests in a window become one SubmitCtx —
// one job allocation, one inbox transit, one failure domain, one context
// registration — with one fan-out spawning N sub-tasks that the scheduler
// load-balances like any other task tree. Per-request overhead that PR 3
// paid N times is paid once per batch. The price is the wait: a sub-
// millisecond timer sleep is rounded up to about 1 ms by Go's netpoller when
// every P is idle, so in a quiet process the default 500µs window holds a
// lone request ≈ 1 ms — which is why only requests whose kernel is a small
// fraction of that are asked to pay it.
type batcher struct {
	ch     chan *batchItem
	stop   chan struct{}
	window time.Duration
	winMul atomic.Int64 // brownout widening: effective window = window * winMul
	max    int
	run    func([]*batchItem)
}

func newBatcher(window time.Duration, max int, run func([]*batchItem)) *batcher {
	b := &batcher{
		ch:     make(chan *batchItem, 2*max),
		stop:   make(chan struct{}),
		window: window,
		max:    max,
		run:    run,
	}
	b.winMul.Store(1)
	go b.loop()
	return b
}

// widen scales the coalescing window by mul (1 restores the configured
// window). The brownout controller widens a degraded endpoint's window so
// scarce capacity is spent on fewer, larger batch jobs.
func (b *batcher) widen(mul int64) { b.winMul.Store(mul) }

// do rides one admitted request through the batcher: it joins the current
// coalescing window and waits for its share of the batch's result — or for
// its own context, whichever fires first, so a batch neighbour can never
// extend this request's deadline. It reports false when the batcher is
// stopped and the caller should run the request as a job of its own.
func (b *batcher) do(ctx context.Context, n int) (result, bool) {
	it := &batchItem{n: n, ctx: ctx, done: make(chan result, 1)}
	select {
	case b.ch <- it:
	case <-ctx.Done():
		return result{err: ctx.Err()}, true
	case <-b.stop:
		return result{}, false
	}
	select {
	case res := <-it.done:
		return res, true
	case <-ctx.Done():
		// The request died while its batch was still collecting or
		// computing; the batch keeps serving its other members (its
		// context stays alive while any member lives) and this member's
		// sub-task is skipped at fan-out or abandoned at the next
		// context check. The buffered done channel absorbs the late
		// result.
		return result{err: ctx.Err()}, true
	}
}

// close stops the collector. Items already collected are still dispatched;
// close is only called once no handler can submit anymore (after drain, or
// after the test server is torn down).
func (b *batcher) close() { close(b.stop) }

func (b *batcher) loop() {
	for {
		select {
		case <-b.stop:
			return
		case first := <-b.ch:
			b.run(b.fill([]*batchItem{first}))
		}
	}
}

// fill gathers items for one batch: everything already pending, then
// whatever arrives within the window, capped at max.
func (b *batcher) fill(items []*batchItem) []*batchItem {
	for len(items) < b.max {
		select {
		case it := <-b.ch:
			items = append(items, it)
			continue
		default:
		}
		break
	}
	window := b.window * time.Duration(b.winMul.Load())
	if len(items) >= b.max || window <= 0 {
		return items
	}
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(items) < b.max {
		select {
		case it := <-b.ch:
			items = append(items, it)
		case <-timer.C:
			return items
		case <-b.stop:
			return items
		}
	}
	return items
}

// batchContext builds the batch job's context: alive while any member
// request is alive, cancelled (watcher-free, via context.AfterFunc on each
// member) once every member's context has died — so one slow client cannot
// be cancelled by its batch neighbours, and a batch whose every requester
// is gone stops computing. The returned stop releases the member hooks;
// the batch dispatcher calls it when the job completes.
func batchContext(items []*batchItem) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	var live atomic.Int64
	live.Store(int64(len(items)))
	stops := make([]func() bool, len(items))
	for i, it := range items {
		stops[i] = context.AfterFunc(it.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// runBatch folds items into one batched root job: one SubmitCtx, one
// fan-out. Each live item gets one spawned sub-task computing the row's
// kernel into its own slot; items whose request died before the fan-out are
// skipped for free. The job is dispatched asynchronously: a goroutine runs
// it through the pipeline's runJob — which folds the batch's task counters
// into the endpoint once per attempt, not once per member — and delivers
// each member's share.
//
// Failure semantics are those of one job, because the batch is one job: a
// panic in any member's subtree fails the whole batch, and every member
// reports the error. The small-job kernels do not panic in normal
// operation, and each member still verifies its own sub-result, so the
// blast radius trade is taken for the amortization. A batch that fails with
// a *PanicError is resubmitted whole, up to Config.PanicRetries times: the
// batch is one job, so the retry is too. Members whose request died between
// attempts are skipped at the next fan-out like at the first.
func (s *Server) runBatch(ep *endpoint, items []*batchItem) {
	bctx, release := batchContext(items)
	values := make([]int64, len(items))
	fanOut := func(p *xkaapi.Proc) {
		for i, it := range items {
			if it.ctx.Err() != nil {
				continue // requester already gone: skip its subtree
			}
			out := &values[i]
			p.Spawn(func(p *xkaapi.Proc) { ep.kernel(p, it.n, out) })
		}
		p.Sync()
	}
	go func() {
		defer release()
		res := s.runJob(bctx, ep, func() result {
			job := s.rt.SubmitCtx(bctx, fanOut)
			err := job.Wait()
			return result{stats: job.Stats(), err: err}
		})
		res.batch = len(items)
		if len(items) > 1 {
			ep.stats.batches.Add(1)
			ep.stats.batched.Add(int64(len(items)))
		}
		for i, it := range items {
			res.value = values[i]
			it.done <- res
		}
	}()
}
