package mutls

import (
	"math"

	"repro/internal/core"
	"repro/internal/predict"
)

// This file implements speculative reduction: out-of-order speculation on
// the *continuation* of a chunked fold. The accumulator is live across the
// chunk boundary, so its value at the join point must be predicted at fork
// time (§IV-G4) and validated with MUTLS_validate_local at the join; a
// misprediction rolls the speculation back and the chunk re-executes
// inline with the true accumulator.
//
// Three accumulator domains share one driver engine (reduceWord), which
// moves raw 64-bit words and validates them bit-exactly; only the float
// domain predicts in its own arithmetic:
//
//   - Reduce        — int64, exact two's-complement stride prediction.
//   - ReduceFloat64 — float64, float-arithmetic stride prediction,
//     bit-exact validation.
//   - ReduceFunc    — any word-encoded monoid, bit-exact validation.

// ReduceOptions configures Reduce, ReduceFloat64 and ReduceFunc.
type ReduceOptions struct {
	// Model is the forking model of the continuation forks; the zero value
	// is OutOfOrder, the classic method-level continuation shape.
	Model Model
	// Predictor selects the accumulator value predictor; the zero value is
	// LastValue. Stride suits induction-like accumulators (constant
	// per-chunk increments); ReduceFloat64 extrapolates it in float64
	// arithmetic, so it follows a constant float delta exactly.
	Predictor Predictor
}

// Reduce folds body over the chunks [0, nChunks) starting from init and
// returns the final accumulator. body(c, idx, acc) executes chunk idx on
// top of accumulator value acc and returns the updated accumulator; it must
// contain only TLS-instrumented work and must be deterministic in (idx,
// acc, simulated memory), since rolled-back chunks re-execute.
//
// While the non-speculative thread folds one chunk, a speculative thread
// folds the next from a predicted accumulator; when the prediction
// validates, the join adopts the speculative live-out and the loop skips
// that chunk.
func Reduce(t *Thread, nChunks int, init int64, opts ReduceOptions, body func(c *Thread, idx int, acc int64) int64) int64 {
	out := reduceFunc(t, nChunks, uint64(init), opts, bodyKey(body), func(c *Thread, idx int, acc uint64) uint64 {
		return uint64(body(c, idx, int64(acc)))
	})
	return int64(out)
}

// ReduceFunc is the monoid-generic reduction: the accumulator is an opaque
// word — any value the caller encodes into 64 bits (a saturating max, a
// modular product, a packed pair, a float via math.Float64bits…). The
// engine predicts the word with the configured predictor (LastValue by
// default; Stride extrapolates over the raw two's-complement encoding, so
// only choose it when the encoding is integer-linear) and validates it
// bit-exactly at the join, preserving exact sequential semantics for every
// encoding.
func ReduceFunc(t *Thread, nChunks int, init uint64, opts ReduceOptions, body func(c *Thread, idx int, acc uint64) uint64) uint64 {
	return reduceFunc(t, nChunks, init, opts, bodyKey(body), body)
}

// reduceFunc is ReduceFunc under the caller's body key (see bodyKey).
func reduceFunc(t *Thread, nChunks int, init uint64, opts ReduceOptions, key uintptr, body func(c *Thread, idx int, acc uint64) uint64) uint64 {
	return reduceWord(t, nChunks, init, opts, false, key, body)
}

// ReduceFloat64 folds body over the chunks [0, nChunks) starting from init
// and returns the final float64 accumulator — the float form of Reduce.
// Prediction runs in float64 arithmetic (a constant float per-chunk delta
// is followed exactly by the Stride predictor) and validation is bit-exact:
// the accumulator travels as its bits. The fold order is the sequential
// order in every outcome — committed speculations adopt the live-out of a
// fold that ran in that same order from the exact live-in — so the result
// is bit-identical to the sequential fold.
func ReduceFloat64(t *Thread, nChunks int, init float64, opts ReduceOptions, body func(c *Thread, idx int, acc float64) float64) float64 {
	out := reduceWord(t, nChunks, math.Float64bits(init), opts, true, bodyKey(body),
		func(c *Thread, idx int, acc uint64) uint64 {
			return math.Float64bits(body(c, idx, math.Float64frombits(acc)))
		})
	return math.Float64frombits(out)
}

// reduceWord is the shared reduction engine. The accumulator travels as a
// raw word in regvar slot 0 (the predicted live-in) and slot 3 (the saved
// live-out); slots 1 and 2 carry the continuation's loop index and bound —
// the transformed loop's live-ins, each a charged saved local. Every chunk
// boundary's accumulator value is observed exactly once by the predictor —
// including init itself and the boundaries of chunks that were never
// forked, so the prediction history always matches the join-point value
// sequence (a refused fork punches no hole in the stride). float predicts
// in float64 arithmetic.
func reduceWord(t *Thread, nChunks int, init uint64, opts ReduceOptions, float bool, key uintptr, body func(c *Thread, idx int, acc uint64) uint64) uint64 {
	if nChunks <= 0 {
		return init
	}
	model := opts.Model
	if model == InOrder {
		// InOrder is the Model zero value and an in-order chain cannot
		// carry a predicted accumulator (each link would need the previous
		// link's live-out), so it maps to the out-of-order default.
		model = OutOfOrder
	}
	rt := t.Runtime()
	point := rt.PointFor(key)
	ranks := make([]Rank, point+1)
	region := func(c *Thread) uint32 {
		specAcc := uint64(c.GetRegvarInt64(0))
		lo := int(c.GetRegvarInt64(1))
		hi := int(c.GetRegvarInt64(2))
		for i := lo; i < hi; i++ {
			specAcc = body(c, i, specAcc)
		}
		c.SaveRegvarInt64(3, int64(specAcc))
		return 0
	}

	acc := init
	// Seed the history with the fold's entry value: the first chunk
	// boundary the continuation forks will predict is extrapolated from
	// here, not from a zero-filled cold entry.
	var live predict.History
	live.Observe(acc)
	for idx := 0; idx < nChunks; idx++ {
		// Cooperative cancellation between chunks (see For).
		t.CancelPoint()
		var h *core.ForkHandle
		if idx+1 < nChunks { // the last chunk has no continuation to fork
			// Fork only from a warm prediction: a cold fork's continuation
			// would run from a guessed accumulator and roll back on any
			// nonzero per-chunk delta, wasting the CPU it claimed.
			if live.Warm(opts.Predictor) {
				raw, _ := live.Predict(opts.Predictor)
				if float {
					v, _ := live.PredictFloat64(opts.Predictor)
					raw = math.Float64bits(v)
				}
				if h = t.ForkBody(ranks, point, model); h != nil {
					h.SetRegvarInt64(0, int64(raw))
					h.SetRegvarInt64(1, int64(idx+1))
					h.SetRegvarInt64(2, int64(idx+2))
					h.Start(region)
				}
			}
		}
		// The inline fold is the continuation's region one chunk earlier:
		// its time is what forking the next chunk is worth.
		span := t.StartInline(point)
		acc = body(t, idx, acc)
		span.Stop()
		// The boundary value after the inline chunk is exactly the value a
		// concurrent fork predicted; record it before validation so the
		// predictor's history stays one-to-one with the boundary sequence.
		live.Observe(acc)
		if h == nil {
			continue // fork refused, predictor cold, or the last chunk
		}
		// MUTLS_validate_local: was the prediction right?
		t.ValidateRegvarInt64(ranks, point, 0, int64(acc))
		if res := t.Join(ranks, point); res.Committed() {
			acc = uint64(res.RegvarInt64(3))
			// Keep the predictor's history aligned with the join-point
			// values it predicts: the adopted live-out is the next one.
			live.Observe(acc)
			idx++ // the speculation consumed the next chunk
		}
		// Rolled back: the next iteration re-executes the chunk inline.
	}
	return acc
}
