package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/tile"
)

// builtinRows is the endpoint table: the paper's three paradigms, one row
// each, over the one pipeline (Server.serve) and the one worker pool.
//
//	GET /fib?n=N: the fork-join recursion, verified against the sequential
//	recurrence.
//	GET /loop?n=N: the worksharing sum kernel the gomp and komp comparators
//	run (sum of [0, n)), hosted on the adaptive foreach of the shared pool —
//	the komp mapping of "#pragma omp for" — verified against the closed form.
//	GET /cholesky?n=N&nb=NB[&verify=1]: one dataflow job factoring a
//	deterministic SPD matrix of order N in NB-sized tiles.
//
// /fib and /loop have a kernel, so concurrent small requests are coalesced
// into one batched job when batching is enabled; they accept affinity=K,
// pinning the job to shard K mod shards of a sharded runtime. /cholesky
// requests are each a full dataflow job already and are never coalesced.
//
// Small means n < the row's coalesceBelow: the size at which the kernel alone
// takes about a third of a millisecond on one worker. From there on a perfect
// batch saves under a tenth of the request's time, the window (≈ 1 ms in an
// idle process, see Config.BatchWindow) can double it, and a batch — one root
// on one shard — would keep the request off an idle shard: such a request is
// a job of its own, placed by the fleet router. The rule is
// about the work in hand, not about the batcher: whatever the window costs
// small requests, a full-size one has nothing to amortize. Measured by
// BenchmarkKernelCost (one worker, Submit → Wait, 2.1 GHz Xeon, µs per job):
//
//	empty job          1.2
//	fib  n=16..21      178  268  425  618  965  1569
//	loop n=250k..2M     91  168  335  641   (n doubling)
func builtinRows(cfg Config) []*endpoint {
	// A cap of zero (or below) selects the row's default.
	orDefault := func(v, def int) int { return cmp.Or(max(v, 0), def) }
	return []*endpoint{
		{name: "fib", defN: 22, maxN: orDefault(cfg.MaxFib, 40), kernel: fibTask, coalesceBelow: 18,
			parse: parseSmall, fill: fillValue(FibSeq)},
		{name: "loop", defN: 200_000, maxN: orDefault(cfg.MaxLoop, 50_000_000), kernel: loopKernel, coalesceBelow: 1_000_000,
			parse: parseSmall, fill: fillValue(func(n int) int64 { return int64(n) * int64(n-1) / 2 })},
		{name: "cholesky", defN: 192, maxN: orDefault(cfg.MaxChol, 2048),
			parse: parseCholesky, attempt: factorTiles, fill: fillCholesky},
	}
}

// fibCutoff is the subtree size above which fibTask consults the job
// context before descending. ctx.Err is a mutex-guarded read of the one
// shared job context, so the cutoff keeps it strictly off the fine-grain
// hot path: only the coarse nodes (a vanishing fraction of the tree) pay
// it, while a deadline still abandons a request within milliseconds.
const fibCutoff = 16

// fibTask is the paper's Fig. 1 fork-join recursion: one task per node.
// Deadline-aware: coarse nodes check the per-job context (cancelled by the
// request deadline, a client disconnect, or a sibling failure) and return
// early instead of expanding a subtree the response can no longer use;
// eager cancel at spawn prunes whatever was already enqueued.
func fibTask(p *xkaapi.Proc, n int, r *int64) {
	if n < 2 {
		*r = int64(n)
		return
	}
	if n >= fibCutoff && p.Context().Err() != nil {
		return // job dead: leave *r partial, the pipeline reports the error
	}
	var a, b int64
	p.Spawn(func(p *xkaapi.Proc) { fibTask(p, n-1, &a) })
	fibTask(p, n-2, &b)
	p.Sync()
	*r = a + b
}

// FibSeq is the sequential Fibonacci reference the /fib endpoint verifies
// its parallel result against. Exported so the load generator
// (cmd/xkserve load) checks responses against the same recurrence.
func FibSeq(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// loopKernel is the /loop worksharing sum as a job body or batch member:
// the adaptive ForEach runs inside this member's sub-task, so concurrent
// members' loops coexist in one job and are load-balanced together.
func loopKernel(p *xkaapi.Proc, n int, out *int64) {
	var sum atomic.Int64
	jctx := p.Context()
	xkaapi.Foreach(p, 0, n, func(_ *xkaapi.Proc, lo, hi int) {
		if jctx.Err() != nil {
			return
		}
		s := int64(0)
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		sum.Add(s)
	})
	*out = sum.Load()
}

// parseSmall is parse for the kernel rows: size (and whether it is small
// enough to coalesce), deadline and the optional affinity parameter, a
// uint64 key pinning the request's job to one shard of a sharded runtime
// (see xkaapi.Runtime.SubmitAffinity).
func parseSmall(ep *endpoint, q url.Values, ceiling time.Duration) (request, error) {
	rq, err := parseSize(ep, q, ceiling)
	rq.small = rq.n < ep.coalesceBelow
	if v := q.Get("affinity"); err == nil && v != "" {
		rq.hasKey = true
		if rq.key, err = strconv.ParseUint(v, 10, 64); err != nil {
			err = fmt.Errorf("bad affinity %q", v)
		}
	}
	return rq, err
}

// submitKernel is attempt for every kernel row (newServer sets it, so the
// direct and the batched path cannot compute different things): the kernel
// as the body of a job of its own, honouring the affinity pin when the
// request carries one.
func submitKernel(s *Server, ctx context.Context, ep *endpoint, rq request) result {
	var out int64
	body := func(p *xkaapi.Proc) { ep.kernel(p, rq.n, &out) }
	var job *xkaapi.Job
	if rq.hasKey {
		job = s.rt.SubmitAffinity(ctx, rq.key, body)
	} else {
		job = s.rt.SubmitCtx(ctx, body)
	}
	err := job.Wait()
	return result{value: out, stats: job.Stats(), err: err}
}

// fillValue is fill for a kernel row: the computed number, verified against
// the sequential reference want.
func fillValue(want func(n int) int64) func(*reply, request, result, time.Duration) {
	return func(rep *reply, rq request, res result, _ time.Duration) {
		rep.Result = &res.value
		rep.OK = res.value == want(rq.n)
		if !rep.OK {
			rep.Error = "result failed verification"
		}
	}
}

// spdCache memoizes the SPD source matrices by order: generation is O(n²)
// per request otherwise, and every request for the same n factors the same
// input. The cache is bounded — beyond maxSPDCached distinct orders,
// requests generate without caching — so a client sweeping n cannot grow
// the server's memory without bound. The factorization itself always runs
// on a fresh tile copy (it is in-place).
const maxSPDCached = 8

var (
	spdMu    sync.Mutex
	spdCache = map[int]*tile.Dense{}
)

func spdSource(n int) *tile.Dense {
	spdMu.Lock()
	d, ok := spdCache[n]
	spdMu.Unlock()
	if ok {
		return d
	}
	d = tile.NewSPD(n, 42)
	spdMu.Lock()
	if len(spdCache) < maxSPDCached {
		spdCache[n] = d
	} else if cached, ok := spdCache[n]; ok {
		d = cached // lost a fill race for an already-cached order
	}
	spdMu.Unlock()
	return d
}

// parseCholesky adds the tile size and the verify switch. The default tile
// size is clamped to the matrix order — /cholesky?n=32 factors with nb=32,
// not the raw default 64.
func parseCholesky(ep *endpoint, q url.Values, ceiling time.Duration) (request, error) {
	rq, err := parseSize(ep, q, ceiling)
	if err == nil {
		rq.nb, err = intParam(q, "nb", min(64, rq.n), rq.n)
	}
	if err == nil && (rq.n == 0 || rq.nb == 0) {
		err = errors.New("n and nb must be positive")
	}
	rq.verify = q.Get("verify") == "1"
	return rq, err
}

// factorTiles is attempt for /cholesky. The factorization is in-place, so
// each attempt starts from a fresh tile copy of the source.
func factorTiles(s *Server, ctx context.Context, _ *endpoint, rq request) result {
	src := spdSource(rq.n)
	m := tile.FromDense(src, rq.nb)
	job, kernelErr := cholesky.SubmitKaapi(ctx, s.rt, m)
	err := job.Wait()
	// The non-SPD diagnostic beats the generic job error — except a panic,
	// which stays visible to the retry decision: a panic-cancelled attempt
	// can leave a half-factored tile that reports a spurious non-SPD error.
	var pe *xkaapi.PanicError
	if ke := kernelErr(); ke != nil && !errors.As(err, &pe) {
		err = ke
	}
	residual := func() float64 { return tile.CholeskyResidual(src, m) }
	return result{check: residual, stats: job.Stats(), err: err}
}

// fillCholesky reports the rate the client saw and, with verify=1, checks
// the factor against the source via the ||LLᵀ-A||/||A|| residual (an O(n³)
// check, off by default).
func fillCholesky(rep *reply, rq request, res result, elapsed time.Duration) {
	rep.Gflops = fltPtr(cholesky.Gflops(rq.n, elapsed))
	rep.OK = true
	if rq.verify {
		residual := res.check()
		rep.Residual = fltPtr(residual)
		rep.OK = residual < 1e-10
		if !rep.OK {
			rep.Error = "residual failed verification"
		}
	}
}

// ErrorLine trims an error (PanicErrors carry a full stack) to its first
// line, for JSON error fields and one-line logs.
func ErrorLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}
