package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// MD is the paper's 3D molecular dynamics simulation (Table II: 256
// particles, 400 time steps). Each step computes all-pairs soft-sphere
// forces (O(N²) with ~10 floating point operations per pair — computation
// intensive) and then integrates positions and velocities. Both loops are
// speculated in chunks; steps are serialized by their joins, which is why
// the paper's md curve shows the critical path efficiency decaying with
// more CPUs.
var MD = &Workload{
	Name:        "md",
	Description: "3D molecular dynamics simulation",
	Pattern:     "loop",
	Language:    "C/Fortran",
	Class:       "computation",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d particles, %d iteration steps", s.N, s.Steps)
	},
	DefaultModel: mutls.InOrder,
	CISize:       Size{N: 48, Steps: 3},
	PaperSize:    Size{N: 256, Steps: 400},
	HeapBytes: func(s Size) int {
		return 8*10*s.N + (1 << 12)
	},
	Seq:  mdSeq,
	Spec: mdSpec,
}

// mdState holds the particle arrays in the simulated address space.
type mdState struct {
	pos, vel, force mem.Addr // 3N float64 each
	n               int
}

func mdInit(t *mutls.Thread, s Size) mdState {
	n := s.N
	st := mdState{
		pos:   t.Alloc(8 * 3 * n),
		vel:   t.Alloc(8 * 3 * n),
		force: t.Alloc(8 * 3 * n),
		n:     n,
	}
	// Deterministic lattice-ish initial positions, zero velocities.
	pos := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			pos[3*i+d] = float64((i*7+d*13)%31)/31.0 + 0.05*float64(d)
		}
	}
	t.StoreFloat64s(st.pos, pos)
	clear(pos)
	t.StoreFloat64s(st.vel, pos)
	return st
}

func (st mdState) free(t *mutls.Thread) {
	t.Free(st.pos)
	t.Free(st.vel)
	t.Free(st.force)
}

// mdForces computes forces for particles [lo,hi) against all others. Each
// particle bulk-loads the position array (3n buffered words, the same
// count the per-pair loads charged, in one range access) and bulk-stores
// its force row. Check-point polling is the loop driver's job here: the
// spec drive sets ForOptions.PollEvery, which polls at particle bounds
// and can actually stop the chunk (saving progress for inline
// completion), so a kernel-level poll would only double the charge.
func mdForces(c *mutls.Thread, st mdState, lo, hi int) {
	const eps = 1e-3
	pos := make([]float64, 3*st.n)
	f := make([]float64, 3)
	for i := lo; i < hi; i++ {
		c.LoadFloat64s(st.pos, pos)
		xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
		clear(f)
		for j := 0; j < st.n; j++ {
			if j == i {
				continue
			}
			dx := xi - pos[3*j]
			dy := yi - pos[3*j+1]
			dz := zi - pos[3*j+2]
			r2 := dx*dx + dy*dy + dz*dz + eps
			inv := 1.0 / (r2 * math.Sqrt(r2))
			f[0] += dx * inv
			f[1] += dy * inv
			f[2] += dz * inv
		}
		c.Tick(int64(st.n) * 30)
		c.StoreFloat64s(st.force+mem.Addr(8*3*i), f)
	}
}

// mdIntegrate advances particles [lo,hi) one time step with bulk loads and
// stores over the [lo,hi) rows of each array (same per-word charges as the
// scalar form, three range crossings instead of 9(hi-lo) accesses).
func mdIntegrate(c *mutls.Thread, st mdState, lo, hi int) {
	const dt = 1e-4
	m := 3 * (hi - lo)
	off := mem.Addr(8 * 3 * lo)
	vel := make([]float64, m)
	force := make([]float64, m)
	pos := make([]float64, m)
	c.LoadFloat64s(st.vel+off, vel)
	c.LoadFloat64s(st.force+off, force)
	c.LoadFloat64s(st.pos+off, pos)
	for k := 0; k < m; k++ {
		vel[k] += dt * force[k]
		pos[k] += dt * vel[k]
	}
	c.Tick(int64(hi-lo) * 12)
	c.StoreFloat64s(st.vel+off, vel)
	c.StoreFloat64s(st.pos+off, pos)
}

// mdPolicy: at least 4 particles per chunk, at most the paper's 64 chunks.
var mdPolicy = mutls.ChunkPolicy{MaxChunks: 64, MinPerChunk: 4}

func mdChecksum(t *mutls.Thread, st mdState) uint64 {
	sum := uint64(0)
	pos := make([]float64, 3*st.n)
	t.LoadFloat64s(st.pos, pos)
	for _, v := range pos {
		sum = mix(sum, math.Float64bits(v))
	}
	return sum
}

func mdSeq(t *mutls.Thread, s Size) uint64 {
	st := mdInit(t, s)
	defer st.free(t)
	for step := 0; step < s.Steps; step++ {
		mdForces(t, st, 0, st.n)
		mdIntegrate(t, st, 0, st.n)
	}
	return mdChecksum(t, st)
}

func mdSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	st := mdInit(t, s)
	defer st.free(t)
	// PollEvery lets parked and squashed chunks stop at a particle boundary
	// instead of draining.
	opts := mutls.ForOptions{Model: o.Model, Policy: mdPolicy, PollEvery: 1}
	for step := 0; step < s.Steps; step++ {
		// The O(N²) force loop is the speculated loop; the O(N) integration
		// is too small to amortize a fork and runs non-speculatively.
		mutls.ForRange(t, st.n, opts, func(c *mutls.Thread, lo, hi int) {
			mdForces(c, st, lo, hi)
		})
		mdIntegrate(t, st, 0, st.n)
	}
	return mdChecksum(t, st)
}
