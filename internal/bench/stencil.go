package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// Stencil is the pipeline-pattern workload (beyond the paper's Table II;
// ROADMAP "more workload shapes"): a two-pass 1-D smoothing stencil over a
// float32 field, structured as a three-stage mutls.Pipeline over tokens =
// field blocks, the DSWP-style decoupled shape. Stage 0 runs the first
// 3-point pass src→tmp for block u; stage 1 runs the second pass tmp→dst
// for block u-2 (the software-pipelining skew that keeps its halo reads on
// blocks whose writes are already committed); stage 2 folds the residual
// |dst-src| of block u-3 into a global accumulator cell. The inter-stage
// live-out is a token cursor — structural, so the stride predictor follows
// it exactly through fill, steady state and drain — while the field data
// flows through simulated memory under GlobalBuffer validation. Size.N is the field length,
// Size.Steps the number of smoothing sweeps (buffers swap between sweeps).
var Stencil = &Workload{
	Name:        "stencil",
	Description: "two-pass 1-D smoothing stencil as a 3-stage pipeline",
	Pattern:     "pipeline",
	Language:    "Go",
	Class:       "computation",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d float32 field, %d sweeps", s.N, s.Steps)
	},
	DefaultModel: mutls.OutOfOrder,
	CISize:       Size{N: 8192, Steps: 2},
	PaperSize:    Size{N: 1 << 16, Steps: 8},
	HeapBytes: func(s Size) int {
		return 3*4*s.N + (1 << 12)
	},
	Seq:  stencilSeq,
	Spec: stencilSpec,
}

// stencilBlocks is the fixed block split of the field (the pipeline's
// token axis per sweep, before the drain skew).
const stencilBlocks = 32

// stencilSkew1 and stencilSkew2 are the token lags of stages 1 and 2: two
// tokens so stage 1's halo reads land on tmp blocks committed at least a
// token ago, one more for stage 2 so it trails stage 1's dst writes.
const (
	stencilSkew1 = 2
	stencilSkew2 = 3
)

// stencilState holds the field buffers in the simulated address space.
type stencilState struct {
	bufs [2]mem.Addr // N float32 each
	tmp  mem.Addr    // N float32
	acc  mem.Addr    // one float64 residual cell
	n    int
}

func stencilInit(t *mutls.Thread, s Size) stencilState {
	st := stencilState{
		bufs: [2]mem.Addr{t.Alloc(4 * s.N), t.Alloc(4 * s.N)},
		tmp:  t.Alloc(4 * s.N),
		acc:  t.Alloc(8),
		n:    s.N,
	}
	init := make([]float32, s.N)
	for i := range init {
		init[i] = float32((i*13+7)%97) / 97.0
	}
	t.StoreFloat32s(st.bufs[0], init)
	t.StoreFloat64(st.acc, 0)
	return st
}

func (st stencilState) free(t *mutls.Thread) {
	t.Free(st.bufs[0])
	t.Free(st.bufs[1])
	t.Free(st.tmp)
	t.Free(st.acc)
}

// stencilBounds returns block blk's element range (empty outside
// [0, stencilBlocks)).
func stencilBounds(n, blk int) (lo, hi int) {
	return mutls.ChunkPolicy{}.Bounds(n, stencilBlocks, blk)
}

// stencilScratch is a run's working storage, two buffers by rank: a rank
// runs its stages one after another, and a squashed one keeps its rank
// until it releases, even running beside its re-execution (mutls.Stage).
type stencilScratch [][2][]float32

// of returns c's rank's buffers, made at its first use for the largest
// block (the first) plus its halo.
func (s stencilScratch) of(c *mutls.Thread, n int) (a, b []float32) {
	bufs := &s[c.Rank()]
	if bufs[0] == nil {
		lo, hi := stencilBounds(n, 0)
		bufs[0], bufs[1] = make([]float32, hi-lo+2), make([]float32, hi-lo+2)
	}
	return bufs[0], bufs[1]
}

// stencilPass applies the 3-point smoothing kernel src→out over [lo, hi),
// clamping the halo at the field edges. The block plus halo is loaded with
// one float32 bulk range access and the block stored with another — the
// sub-word slice views on the single-charge range contract.
func stencilPass(c *mutls.Thread, scr stencilScratch, src, out mem.Addr, n, lo, hi int) {
	if lo >= hi {
		return
	}
	haloLo, haloHi := max(lo-1, 0), min(hi+1, n)
	in, res := scr.of(c, n)
	in, res = in[:haloHi-haloLo], res[:hi-lo]
	c.LoadFloat32s(src+mem.Addr(4*haloLo), in)
	at := func(i int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return in[i-haloLo]
	}
	for i := lo; i < hi; i++ {
		res[i-lo] = 0.25*at(i-1) + 0.5*at(i) + 0.25*at(i+1)
	}
	// 5 flops per element at the md convention of ~3 units per flop.
	c.Tick(int64(hi-lo) * 15)
	c.StoreFloat32s(out+mem.Addr(4*lo), res)
}

// stencilResidual folds Σ|dst-src| over [lo, hi) into the accumulator
// cell.
func stencilResidual(c *mutls.Thread, scr stencilScratch, src, dst, acc mem.Addr, n, lo, hi int) {
	if lo >= hi {
		return
	}
	a, b := scr.of(c, n)
	a, b = a[:hi-lo], b[:hi-lo]
	c.LoadFloat32s(src+mem.Addr(4*lo), a)
	c.LoadFloat32s(dst+mem.Addr(4*lo), b)
	sum := c.LoadFloat64(acc)
	for i := range a {
		sum += math.Abs(float64(b[i]) - float64(a[i]))
	}
	c.Tick(int64(hi-lo) * 9)
	c.StoreFloat64(acc, sum)
}

// stencilStages builds a run's two stage lists, once, over one scratch:
// list k smooths bufs[k] into the other buffer, and sweep k runs list k%2.
// Seq and Spec drive the same closures in the same token order, so the
// floating-point order is identical.
func stencilStages(t *mutls.Thread, st stencilState) (lists [2][]mutls.Stage) {
	scr := make(stencilScratch, t.Runtime().NumCPUs()+1)
	for k := range lists {
		src, dst := st.bufs[k], st.bufs[1-k]
		stage0 := func(c *mutls.Thread, token int, in uint64) uint64 {
			lo, hi := stencilBounds(st.n, token)
			stencilPass(c, scr, src, st.tmp, st.n, lo, hi)
			return in + 1
		}
		stage1 := func(c *mutls.Thread, token int, in uint64) uint64 {
			lo, hi := stencilBounds(st.n, token-stencilSkew1)
			stencilPass(c, scr, st.tmp, dst, st.n, lo, hi)
			return in + 1
		}
		stage2 := func(c *mutls.Thread, token int, in uint64) uint64 {
			lo, hi := stencilBounds(st.n, token-stencilSkew2)
			stencilResidual(c, scr, src, dst, st.acc, st.n, lo, hi)
			return in + 1
		}
		lists[k] = []mutls.Stage{stage0, stage1, stage2}
	}
	return lists
}

// stencilTokens is the token count of one sweep: every block must pass
// through the most-skewed stage.
const stencilTokens = stencilBlocks + stencilSkew2

func stencilChecksum(t *mutls.Thread, st stencilState, cur mem.Addr) uint64 {
	field := make([]float32, st.n)
	t.LoadFloat32s(cur, field)
	sum := uint64(0)
	for _, v := range field {
		sum = mix(sum, uint64(math.Float32bits(v)))
	}
	return mix(sum, math.Float64bits(t.LoadFloat64(st.acc)))
}

func stencilSeq(t *mutls.Thread, s Size) uint64 {
	st := stencilInit(t, s)
	defer st.free(t)
	lists := stencilStages(t, st)
	for step := 0; step < s.Steps; step++ {
		in := uint64(0)
		for token := 0; token < stencilTokens; token++ {
			for _, stage := range lists[step%2] {
				in = stage(t, token, in)
			}
		}
	}
	return stencilChecksum(t, st, st.bufs[s.Steps%2])
}

func stencilSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	st := stencilInit(t, s)
	defer st.free(t)
	opts := mutls.PipelineOptions{Model: o.Model, Predictor: mutls.Stride}
	lists := stencilStages(t, st)
	for step := 0; step < s.Steps; step++ {
		mutls.Pipeline(t, stencilTokens, 0, opts, lists[step%2]...)
	}
	return stencilChecksum(t, st, st.bufs[s.Steps%2])
}
