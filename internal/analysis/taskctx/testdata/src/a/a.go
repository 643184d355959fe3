// Package a exercises the taskctx analyzer: task bodies are recognized
// both by their *xkaapi.Proc parameter and by being literals passed to
// spawn-like entrypoints; detached contexts and non-derived shadows are
// flagged, derived contexts are not.
package a

import (
	"context"
	"time"

	"xkaapi"
)

// kernel has a *Proc parameter, so it is a task body wherever it is
// called from (this is the server-workload-kernel shape).
func kernel(p *xkaapi.Proc, out *int64) {
	ctx := p.Context() // ok: obtained from the job
	_ = ctx
	bad := context.Background() // want `task body calls context.Background`
	_ = bad
	select {
	case <-p.Context().Done():
	default:
	}
}

func regions(rt *xkaapi.Runtime, ctx context.Context) error {
	// Literal passed to an entrypoint: a task body even without a Proc
	// parameter in scope of the checks.
	err := rt.Run(func(p *xkaapi.Proc) {
		_ = context.TODO() // want `task body calls context.TODO`
	})
	if err != nil {
		return err
	}
	// Shadowing the supplied ctx with a detached context loses the job's
	// cancellation signal: both the call and the shadow are reported.
	err = rt.Run(func(p *xkaapi.Proc) {
		ctx := context.Background() // want `task body calls context.Background` `task body shadows "ctx"`
		_ = ctx
	})
	if err != nil {
		return err
	}
	// Deriving from the shadowed ctx is the approved pattern.
	return rt.Run(func(p *xkaapi.Proc) {
		ctx, cancel := context.WithTimeout(ctx, time.Second) // ok: derived
		defer cancel()
		var ctx2 context.Context = ctx
		_ = ctx2
	})
}

// quarkish mimics the InsertTaskCtx shape: the body receives the job
// context as a parameter; shadowing it inside a block is flagged.
type inserter struct{}

func (inserter) InsertTaskCtx(fn func(ctx context.Context)) {}

func insert(q inserter) {
	q.InsertTaskCtx(func(ctx context.Context) {
		{
			ctx := context.TODO() // want `task body calls context.TODO` `task body shadows "ctx"`
			_ = ctx
		}
		{
			ctx := context.WithoutCancel(ctx) // ok: derived (deliberate detach is visible)
			_ = ctx
		}
		{
			ctx := context.Background() //xk:allow(taskctx): fixture proves suppression works
			_ = ctx
		}
	})
}

// helper is not a task body: ordinary code may build root contexts.
func helper() context.Context {
	return context.Background()
}

var _ = kernel
var _ = regions
var _ = insert
var _ = helper
