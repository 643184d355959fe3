// Package cholesky implements the tile Cholesky factorization
// (PLASMA_dpotrf_Tile) under the four schedulers of the paper's Fig. 2
// experiment:
//
//   - Seq: sequential right-looking tile algorithm (the baseline T_seq);
//   - Kaapi: X-Kaapi dataflow tasks, one handle per tile — the "XKaapi"
//     series;
//   - RunQuark: tasks inserted through the QUARK API with INPUT/INOUT/OUTPUT
//     flags; with quark.EngineNative this is the "PLASMA/Quark" series
//     (centralized ready list), with quark.EngineKaapi it is the
//     binary-compatible QUARK-on-X-Kaapi port the paper built;
//   - Static: the PLASMA static pipeline — a fixed column-cyclic owner map
//     and per-tile progress counters that threads spin on, with no task
//     management at all (the "PLASMA/static" series).
//
// # Kernels
//
// All four run the same four blas kernels on the same tiles, so measured
// differences are scheduling, exactly as in the paper: internal/blas has
// one set of micro-kernels per machine — on an amd64 CPU with FMA an 8×4
// assembly block with the bits of a fused per-element chain, joined where
// the CPU has AVX-512 by an 8×16 block over packed panels that gemm, syrk
// (with the same bits), trsm and potrf run most of their flops on;
// elsewhere the portable Go kernel; chosen once at start-up from CPUID —
// and no way to select another, so within one process every scheduler's
// factor is bitwise the sequential one. What faster micro-kernels change
// is the grain the schedulers are compared at: on the AVX-512 block a
// 128×128 gemm runs at about 1.25 times the rate of the earlier 8×8 one
// and a trsm at about twice it, so a scheduler's per-task cost is that
// much more of the solve.
// Tiles that are not a multiple of 8 leave their m%8 last rows and n%4
// last columns to a scalar path, which every scheduler runs alike.
package cholesky

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/internal/blas"
	"xkaapi/internal/tile"
	"xkaapi/quark"
)

// Seq factors t in place (lower Cholesky) with the sequential right-looking
// tile algorithm.
func Seq(t *tile.Tiled) error {
	nb, nt := t.NB, t.NT
	for k := 0; k < nt; k++ {
		if err := blas.PotrfLower(t.Rows(k), t.Tile(k, k), nb); err != nil {
			return err
		}
		for m := k + 1; m < nt; m++ {
			blas.TrsmRLTN(t.Rows(m), t.Rows(k), t.Tile(k, k), nb, t.Tile(m, k), nb)
		}
		for m := k + 1; m < nt; m++ {
			blas.SyrkLN(t.Rows(m), t.Rows(k), t.Tile(m, k), nb, t.Tile(m, m), nb)
			for n := k + 1; n < m; n++ {
				blas.GemmNT(t.Rows(m), t.Rows(n), t.Rows(k),
					t.Tile(m, k), nb, t.Tile(n, k), nb, t.Tile(m, n), nb)
			}
		}
	}
	return nil
}

// Kaapi factors t in place using X-Kaapi dataflow tasks: one Handle per
// tile, potrf/trsm/syrk/gemm tasks with R/RW accesses. The runtime extracts
// the same DAG PLASMA's QUARK version declares, but schedules it by work
// stealing over per-worker deques.
func Kaapi(rt *xkaapi.Runtime, t *tile.Tiled) error {
	return KaapiCtx(context.Background(), rt, t)
}

// KaapiCtx is Kaapi bound to a context: cancelling ctx abandons the
// factorization's remaining tile tasks and returns ctx's error (t is then
// partially factored and must be discarded).
func KaapiCtx(ctx context.Context, rt *xkaapi.Runtime, t *tile.Tiled) error {
	job, kernelErr := SubmitKaapi(ctx, rt, t)
	err := job.Wait()
	if ke := kernelErr(); ke != nil {
		return ke // a kernel diagnostic (non-SPD input) beats the job error
	}
	return err
}

// SubmitKaapi inserts the factorization's tile tasks as one dataflow job on
// rt and returns without waiting: the job handle (for Wait, Cancel and
// per-job Stats — this is the submit-style entry a request-serving
// front-end needs), plus an accessor for the first kernel diagnostic (a
// non-positive-definite input detected by potrf), which is only meaningful
// once the job is done.
func SubmitKaapi(ctx context.Context, rt *xkaapi.Runtime, t *tile.Tiled) (*xkaapi.Job, func() error) {
	nb, nt := t.NB, t.NT
	handles := make([]xkaapi.Handle, nt*nt)
	h := func(i, j int) *xkaapi.Handle { return &handles[i*nt+j] }
	var errMu sync.Mutex
	var ferr error
	fail := func(err error) {
		if err != nil {
			errMu.Lock()
			if ferr == nil {
				ferr = err
			}
			errMu.Unlock()
		}
	}
	job := rt.SubmitCtx(ctx, func(p *xkaapi.Proc) {
		// Every kernel body consults the per-job context (Proc.Context) on
		// entry: it is cancelled by the request deadline, a client
		// disconnect, Job.Cancel or a sibling failure. The runtime's
		// execute-time skip already covers almost everything — the guard
		// only closes the instruction-scale window between that check and
		// body entry — but it costs one context read per O(nb³) kernel,
		// i.e. nothing, and it is the documented deadline-aware-body shape
		// for dataflow workloads (no JobFailed polling).
		dead := func(wp *xkaapi.Proc) bool { return wp.Context().Err() != nil }
		for k := 0; k < nt; k++ {
			k := k
			p.SpawnTask(func(wp *xkaapi.Proc) {
				if dead(wp) {
					return
				}
				fail(blas.PotrfLower(t.Rows(k), t.Tile(k, k), nb))
			}, xkaapi.ReadWrite(h(k, k)))
			for m := k + 1; m < nt; m++ {
				m := m
				p.SpawnTask(func(wp *xkaapi.Proc) {
					if dead(wp) {
						return
					}
					blas.TrsmRLTN(t.Rows(m), t.Rows(k), t.Tile(k, k), nb, t.Tile(m, k), nb)
				}, xkaapi.Read(h(k, k)), xkaapi.ReadWrite(h(m, k)))
			}
			for m := k + 1; m < nt; m++ {
				m := m
				p.SpawnTask(func(wp *xkaapi.Proc) {
					if dead(wp) {
						return
					}
					blas.SyrkLN(t.Rows(m), t.Rows(k), t.Tile(m, k), nb, t.Tile(m, m), nb)
				}, xkaapi.Read(h(m, k)), xkaapi.ReadWrite(h(m, m)))
				for n := k + 1; n < m; n++ {
					n := n
					p.SpawnTask(func(wp *xkaapi.Proc) {
						if dead(wp) {
							return
						}
						blas.GemmNT(t.Rows(m), t.Rows(n), t.Rows(k),
							t.Tile(m, k), nb, t.Tile(n, k), nb, t.Tile(m, n), nb)
					}, xkaapi.Read(h(m, k)), xkaapi.Read(h(n, k)), xkaapi.ReadWrite(h(m, n)))
				}
			}
		}
		p.Sync()
	})
	return job, func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return ferr
	}
}

// RunQuark factors t in place by inserting the tile kernels through the
// QUARK API; q selects the engine (native centralized list, or X-Kaapi).
func RunQuark(q *quark.Quark, t *tile.Tiled) error {
	nb, nt := t.NB, t.NT
	var errOnce sync.Once
	var ferr error
	fail := func(err error) {
		if err != nil {
			errOnce.Do(func() { ferr = err })
		}
	}
	fail(q.Run(func(q *quark.Quark) {
		for k := 0; k < nt; k++ {
			k := k
			kk := t.Tile(k, k)
			q.InsertTask(func() {
				fail(blas.PotrfLower(t.Rows(k), kk, nb))
			}, quark.Arg{Ptr: &kk[0], Flag: quark.INOUT})
			for m := k + 1; m < nt; m++ {
				m := m
				mk := t.Tile(m, k)
				q.InsertTask(func() {
					blas.TrsmRLTN(t.Rows(m), t.Rows(k), kk, nb, mk, nb)
				}, quark.Arg{Ptr: &kk[0], Flag: quark.INPUT},
					quark.Arg{Ptr: &mk[0], Flag: quark.INOUT})
			}
			for m := k + 1; m < nt; m++ {
				m := m
				mk := t.Tile(m, k)
				mm := t.Tile(m, m)
				q.InsertTask(func() {
					blas.SyrkLN(t.Rows(m), t.Rows(k), mk, nb, mm, nb)
				}, quark.Arg{Ptr: &mk[0], Flag: quark.INPUT},
					quark.Arg{Ptr: &mm[0], Flag: quark.INOUT})
				for n := k + 1; n < m; n++ {
					n := n
					nk := t.Tile(n, k)
					mn := t.Tile(m, n)
					q.InsertTask(func() {
						blas.GemmNT(t.Rows(m), t.Rows(n), t.Rows(k), mk, nb, nk, nb, mn, nb)
					}, quark.Arg{Ptr: &mk[0], Flag: quark.INPUT},
						quark.Arg{Ptr: &nk[0], Flag: quark.INPUT},
						quark.Arg{Ptr: &mn[0], Flag: quark.INOUT})
				}
			}
		}
	}))
	return ferr
}

// Static factors t in place with the PLASMA-style static pipeline on p
// threads: ops are bound to threads by the column of the tile they write
// (owner = column mod p), and cross-thread ordering is enforced by spinning
// on per-tile progress counters. No queue, no tasks, no stealing — the
// zero-overhead-but-rigid end of the paper's comparison.
func Static(p int, t *tile.Tiled) error {
	if p < 1 {
		p = 1
	}
	nb, nt := t.NB, t.NT
	// trsmDone[m*nt+k] = 1 once tile (m,k) holds its final panel value
	// (including m == k for the factored diagonal tile).
	trsmDone := make([]atomic.Int32, nt*nt)
	// updates[m*nt+n] counts Schur updates applied to tile (m,n); tile
	// (m,n) is fully updated for step k when the count reaches k.
	updates := make([]atomic.Int32, nt*nt)
	var ferr atomic.Value

	wait := func(c *atomic.Int32, v int32) {
		for c.Load() < v {
			if ferr.Load() != nil {
				return
			}
			runtime.Gosched()
		}
	}

	var wg sync.WaitGroup
	for tid := 0; tid < p; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for k := 0; k < nt; k++ {
				if ferr.Load() != nil {
					return
				}
				if k%p == tid {
					// All updates to column k tiles were applied by this
					// same thread in earlier iterations, so the panel is
					// ready: factor and solve it.
					if err := blas.PotrfLower(t.Rows(k), t.Tile(k, k), nb); err != nil {
						ferr.Store(err)
						return
					}
					trsmDone[k*nt+k].Store(1)
					for m := k + 1; m < nt; m++ {
						blas.TrsmRLTN(t.Rows(m), t.Rows(k), t.Tile(k, k), nb, t.Tile(m, k), nb)
						trsmDone[m*nt+k].Store(1)
					}
				}
				// Apply the step-k updates to the tiles this thread owns.
				for m := k + 1; m < nt; m++ {
					for n := k + 1; n <= m; n++ {
						if n%p != tid {
							continue
						}
						wait(&trsmDone[m*nt+k], 1)
						wait(&trsmDone[n*nt+k], 1)
						wait(&updates[m*nt+n], int32(k))
						if ferr.Load() != nil {
							return
						}
						if n == m {
							blas.SyrkLN(t.Rows(m), t.Rows(k), t.Tile(m, k), nb, t.Tile(m, m), nb)
						} else {
							blas.GemmNT(t.Rows(m), t.Rows(n), t.Rows(k),
								t.Tile(m, k), nb, t.Tile(n, k), nb, t.Tile(m, n), nb)
						}
						updates[m*nt+n].Add(1)
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if e := ferr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// Gflops converts a Cholesky wall-clock time into GFlop/s using the
// standard n³/3 flop count.
func Gflops(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return (float64(n) * float64(n) * float64(n) / 3) / d.Seconds() / 1e9
}
