package epx

import (
	"fmt"
	"time"

	"xkaapi"
	"xkaapi/gomp"
	"xkaapi/internal/skyline"
)

// Backend abstracts the parallel runtime under the simulation: the two
// independent loops (LOOPELM, REPERA) and the sparse Cholesky factorization
// are executed through it, so the same simulation runs sequentially, on
// X-Kaapi, or on the OpenMP-style runtime (the paper's Fig. 6/8 setup).
type Backend interface {
	Name() string
	// Foreach runs body over sub-ranges of [lo, hi) and returns when all
	// iterations completed.
	Foreach(lo, hi int, body func(lo, hi int))
	// Factor factors the skyline matrix in place.
	Factor(m *skyline.Matrix) error
	// Close releases runtime resources.
	Close()
}

// seqBackend runs everything on the calling goroutine.
type seqBackend struct{}

// NewSeqBackend returns the sequential baseline backend.
func NewSeqBackend() Backend { return seqBackend{} }

func (seqBackend) Name() string                              { return "seq" }
func (seqBackend) Foreach(lo, hi int, body func(lo, hi int)) { body(lo, hi) }
func (seqBackend) Factor(m *skyline.Matrix) error            { return skyline.FactorSeq(m) }
func (seqBackend) Close()                                    {}

// kaapiBackend drives the loops through xkaapi.Foreach (adaptive splitting)
// and the factorization through dataflow tasks.
type kaapiBackend struct {
	rt *xkaapi.Runtime
}

// NewKaapiBackend returns an X-Kaapi backend with n workers.
func NewKaapiBackend(n int) Backend {
	return &kaapiBackend{rt: xkaapi.New(xkaapi.WithWorkers(n))}
}

func (b *kaapiBackend) Name() string { return "xkaapi" }

func (b *kaapiBackend) Foreach(lo, hi int, body func(lo, hi int)) {
	// A loop-body panic fails the job instead of crashing the process now;
	// the Backend interface has no error channel, so resurface it loudly —
	// silent partial results would corrupt the simulation.
	if err := b.rt.Foreach(lo, hi, func(_ *xkaapi.Proc, l, h int) { body(l, h) }); err != nil {
		panic(err)
	}
}

func (b *kaapiBackend) Factor(m *skyline.Matrix) error {
	return skyline.FactorKaapi(b.rt, m)
}

func (b *kaapiBackend) Close() { b.rt.Close() }

// Runtime returns the backend's pool, whose Stats show what the adaptive
// loops did (Splits: how often a thief split one).
func (b *kaapiBackend) Runtime() *xkaapi.Runtime { return b.rt }

// gompBackend drives the loops through OpenMP-style worksharing and the
// factorization through the taskwait-synchronized OpenMP port.
type gompBackend struct {
	team  *gomp.Team
	sched gomp.Schedule
	chunk int
}

// NewGompBackend returns an OpenMP-style backend with n threads and the
// given loop schedule (chunk as in the schedule() clause).
func NewGompBackend(n int, sched gomp.Schedule, chunk int) Backend {
	return &gompBackend{team: gomp.NewTeam(n), sched: sched, chunk: chunk}
}

func (b *gompBackend) Name() string { return "openmp/" + b.sched.String() }

func (b *gompBackend) Foreach(lo, hi int, body func(lo, hi int)) {
	// As in kaapiBackend: the interface has no error channel, so a region
	// failure must not be silently dropped.
	if err := b.team.ParallelFor(lo, hi, b.sched, b.chunk, func(_, l, h int) { body(l, h) }); err != nil {
		panic(err)
	}
}

func (b *gompBackend) Factor(m *skyline.Matrix) error {
	return skyline.FactorGomp(b.team, m)
}

func (b *gompBackend) Close() { b.team.Close() }

// Instance describes one EPX simulation scenario.
type Instance struct {
	Name string

	// Mesh and stepping.
	NX, NY, NZ int
	Steps      int

	// REPERA cost: refinement iterations per contact candidate.
	Refine int

	// OtherReps scales the sequential diagnostics in the "other" phase.
	OtherReps int

	// H matrix (condensed Lagrange-multiplier system, CHOLESKY kernel).
	HN     int     // order
	HFill  float64 // envelope fill fraction
	HBS    int     // block size (the paper uses BS=88)
	HScale int     // factor+solve repetitions per step (weight knob)
	HSkip  int     // factor every HSkip steps (1 = every step)

	Seed uint64
}

// MEPPEN is the missile-crash instance: large structural strains, many
// contacts — time dominated by LOOPELM and REPERA, with a small condensed
// system (Fig. 8 left). scale >= 1 grows the mesh for bigger machines.
func MEPPEN(scale int) Instance {
	if scale < 1 {
		scale = 1
	}
	return Instance{
		Name: "MEPPEN",
		NX:   24 * scale, NY: 24, NZ: 12,
		Steps:     4,
		Refine:    12,
		OtherReps: 35,
		HN:        256, HFill: 0.08, HBS: 48, HScale: 1, HSkip: 1,
		Seed: 20130501,
	}
}

// MAXPLANE is the ice-impact-on-composite-plate instance: ply-to-ply
// contact makes the condensed H matrix nearly as large and filled as the
// stiffness matrix, so CHOLESKY dominates (~60% of sequential time,
// Fig. 8 right). scale >= 1 grows the system.
func MAXPLANE(scale int) Instance {
	if scale < 1 {
		scale = 1
	}
	return Instance{
		Name: "MAXPLANE",
		NX:   18 * scale, NY: 18, NZ: 10,
		Steps:     4,
		Refine:    20,
		OtherReps: 500,
		HN:        1100 * scale, HFill: 0.036, HBS: 88, HScale: 1, HSkip: 1,
		Seed: 20130502,
	}
}

// PhaseTimes is the per-kernel wall-clock decomposition the paper's Fig. 8
// stacks: repera, loopelm, Cholesky, and the remaining sequential "other".
type PhaseTimes struct {
	Repera   time.Duration
	Loopelm  time.Duration
	Cholesky time.Duration
	Other    time.Duration
}

// Total returns the summed wall-clock time.
func (p PhaseTimes) Total() time.Duration {
	return p.Repera + p.Loopelm + p.Cholesky + p.Other
}

// Add accumulates q into p.
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.Repera += q.Repera
	p.Loopelm += q.Loopelm
	p.Cholesky += q.Cholesky
	p.Other += q.Other
}

// String formats the decomposition.
func (p PhaseTimes) String() string {
	return fmt.Sprintf("repera=%v loopelm=%v cholesky=%v other=%v total=%v",
		p.Repera.Round(time.Millisecond), p.Loopelm.Round(time.Millisecond),
		p.Cholesky.Round(time.Millisecond), p.Other.Round(time.Millisecond),
		p.Total().Round(time.Millisecond))
}

// Sim is one prepared simulation: mesh, state, contact structure and H
// matrix. Prepare once, then Run with different backends.
type Sim struct {
	Inst Instance
	St   *State
	Rep  *Repera
	H    *skyline.Matrix
	rhs  []float64

	// Deterministic checksums filled by Run, compared across backends by
	// the tests (parallel executions must be bitwise identical to
	// sequential ones: no reductions race, every write is owned).
	ForceNorm float64
	CandSum   float64
	SolNorm   float64
}

// NewSim builds the meshes and matrices of inst.
func NewSim(inst Instance) (*Sim, error) {
	mesh := NewBox(inst.NX, inst.NY, inst.NZ, 1.0)
	st := NewState(mesh, Material{E: 100, Yield: 0.02, Hard: 0.3})
	st.Kick(0.4, 0.8)
	env := skyline.GenEnvelope(inst.HN, inst.HFill, inst.Seed)
	h, err := skyline.NewFromEnvelope(env, inst.HBS)
	if err != nil {
		return nil, err
	}
	return &Sim{
		Inst: inst,
		St:   st,
		Rep:  NewRepera(mesh, inst.Refine),
		H:    h,
		rhs:  make([]float64, inst.HN),
	}, nil
}

// Run executes the simulation on backend b and returns the phase time
// decomposition.
func (s *Sim) Run(b Backend) (PhaseTimes, error) {
	var pt PhaseTimes
	st := s.St
	inst := s.Inst
	for step := 0; step < inst.Steps; step++ {
		// --- other: assembly of the previous forces, time integration,
		// contact-grid rebuild (sequential in EPX as well).
		t0 := time.Now()
		st.Assemble()
		st.Integrate()
		st.Diagnostics(inst.OtherReps)
		s.Rep.Build(st.Disp)
		pt.Other += time.Since(t0)

		// --- LOOPELM: independent loop over elements.
		t0 = time.Now()
		b.Foreach(0, st.M.NumElems(), func(lo, hi int) {
			st.ElemForceRange(lo, hi)
		})
		pt.Loopelm += time.Since(t0)

		// --- REPERA: independent loop over striker nodes.
		t0 = time.Now()
		b.Foreach(0, st.M.NumNodes(), func(lo, hi int) {
			s.Rep.SortRange(st.Disp, lo, hi)
		})
		pt.Repera += time.Since(t0)

		// --- CHOLESKY: refresh, factor and solve the condensed system.
		if inst.HSkip > 0 && step%inst.HSkip == 0 {
			t0 = time.Now()
			for rep := 0; rep < max(1, inst.HScale); rep++ {
				s.H.FillSPD(inst.Seed + uint64(step) + uint64(rep))
				if err := b.Factor(s.H); err != nil {
					return pt, fmt.Errorf("epx: step %d: %w", step, err)
				}
				for i := range s.rhs {
					s.rhs[i] = 1
				}
				s.H.SolveInPlace(s.rhs)
			}
			pt.Cholesky += time.Since(t0)
		}
	}
	// Final deterministic checksums.
	st.Assemble()
	s.ForceNorm = st.ForceNorm()
	s.CandSum = s.Rep.CandChecksum()
	var sn float64
	for _, v := range s.rhs {
		sn += v * v
	}
	s.SolNorm = sn
	return pt, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
