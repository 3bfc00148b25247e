package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// FloatSum is the float-reduction workload (beyond the paper's Table II;
// ROADMAP "speculative reductions over float64/general monoids"): a fixed-
// order float64 polynomial sum of a float32 array through mutls.ReduceFloat64. The
// fold order is the flat element order in both versions, so the result is
// bit-identical between sequential and speculative runs (bit-exact
// accumulator validation). The array repeats a short pattern of
// exact dyadic values, so every equal-sized chunk group adds exactly the
// same float64 delta and the float-arithmetic stride predictor locks on
// after two group boundaries — the continuation forks then commit, which
// is what makes the reduction a speculation workload rather than a serial
// fold. Size.N is the element count.
var FloatSum = &Workload{
	Name:        "floatsum",
	Description: "fixed-order float64 sum (speculative float reduction)",
	Pattern:     "reduction",
	Language:    "Go",
	Class:       "computation",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d float32 values (fold)", s.N)
	},
	DefaultModel: mutls.OutOfOrder,
	CISize:       Size{N: 1 << 15},
	PaperSize:    Size{N: 1 << 22},
	HeapBytes: func(s Size) int {
		return 4*s.N + (1 << 12)
	},
	Seq:  floatSumSeq,
	Spec: floatSumSpec,
}

// floatSumChunks is the fixed chunk split of the fold (one Reduce index
// per chunk; groups of chunks are speculated as continuations).
const floatSumChunks = 64

// floatSumInit is the nonzero fold seed: it bakes the Reduce cold-start
// regression into the benchmark itself — before the warm-gated predictor,
// the first continuation ran from accumulator 0 and could only commit when
// the seed was 0.
const floatSumInit = 0.5

func floatSumFill(t *mutls.Thread, s Size) mem.Addr {
	arr := t.Alloc(4 * s.N)
	vals := make([]float32, s.N)
	for i := range vals {
		// Dyadic pattern values: every partial sum is exact in float64, so
		// equal-sized chunks contribute exactly equal deltas.
		vals[i] = float32(i%8) * 0.25
	}
	t.StoreFloat32s(arr, vals)
	return arr
}

// floatSumChunk folds chunk idx of the array in flat element order,
// bulk-loading the chunk with the float32 slice view.
func floatSumChunk(c *mutls.Thread, arr mem.Addr, n, idx int, acc float64) float64 {
	lo, hi := mutls.ChunkPolicy{}.Bounds(n, floatSumChunks, idx)
	if lo >= hi {
		return acc
	}
	vals := make([]float32, hi-lo)
	c.LoadFloat32s(arr+mem.Addr(4*lo), vals)
	for _, raw := range vals {
		// All inputs are dyadic (k/4) and the polynomial keeps every
		// intermediate exactly representable, so equal chunks add exactly
		// equal float64 deltas and the stride predictor stays exact.
		v := float64(raw)
		acc += v * (0.25 + v*v)
	}
	// 4 flops per element at the md convention of ~3 units per flop.
	c.Tick(int64(hi-lo) * 12)
	return acc
}

func floatSumSeq(t *mutls.Thread, s Size) uint64 {
	arr := floatSumFill(t, s)
	defer t.Free(arr)
	acc := floatSumInit
	for idx := 0; idx < floatSumChunks; idx++ {
		acc = floatSumChunk(t, arr, s.N, idx, acc)
	}
	return mix(0, math.Float64bits(acc))
}

func floatSumSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	arr := floatSumFill(t, s)
	defer t.Free(arr)
	opts := mutls.ReduceOptions{Model: o.Model, Predictor: mutls.Stride}
	acc := mutls.ReduceFloat64(t, floatSumChunks, floatSumInit, opts,
		func(c *mutls.Thread, idx int, acc float64) float64 {
			return floatSumChunk(c, arr, s.N, idx, acc)
		})
	return mix(0, math.Float64bits(acc))
}
