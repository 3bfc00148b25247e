package mutls

import (
	"math"

	"repro/internal/core"
	"repro/internal/predict"
)

// This file implements stage-parallel speculative pipelines, the
// DSWP-style decoupled shape of the related work: a stream of tokens flows
// through an ordered list of stages, and while the non-speculative thread
// executes a token's first stage, the downstream stages of the same token
// run speculatively, each from a *predicted* upstream live-out. Each stage
// is its own fork point (so the per-point live counters profile every
// stage separately), tokens are processed strictly in order, and the
// inter-stage word is validated at every join with MUTLS_validate_local —
// a misprediction, or a conflicting memory access, rolls the stage back
// and it re-executes inline with the true live-in, so the pipeline keeps
// the exact token-major sequential semantics:
//
//	for token { for stage { in = stage(token, in) } }
//
// The inter-stage word is what makes a pipeline speculate well: keep it
// structural (counts, offsets, cursors — values last-value/stride
// prediction can follow) and move the data itself through simulated
// memory, which the GlobalBuffer validates independently. Stages that
// consume memory written by an upstream stage should consume it with a
// token lag (stage s works on the block stage s-1 produced a token
// earlier, the classic software-pipelining skew), so the producing write
// is committed by the time the consuming stage speculates.

// Stage is one pipeline stage: it processes token `token`, consuming the
// upstream live-out `in` (for the first stage: the previous token's final
// live-out, making the pipeline a loop-carried chain) and returning its
// own live-out. It must contain only TLS-instrumented work and be
// deterministic in (token, in, simulated memory), since rolled-back stages
// re-execute.
type Stage func(c *Thread, token int, in uint64) uint64

// PipelineOptions configures Pipeline.
type PipelineOptions struct {
	// Model is the forking model of the stage forks; the zero value is
	// OutOfOrder (stages are independent continuations forked by the
	// non-speculative thread). InOrder cannot drive a pipeline — every
	// stage would need the previous stage's live-out before forking — and
	// maps to the out-of-order default, mirroring Reduce.
	Model Model
	// Predictor selects the inter-stage live-in predictor, keyed per
	// stage; the zero value is LastValue. Stride follows live-ins that
	// advance by a constant delta per token (block cursors, running
	// counts).
	Predictor Predictor
	// Float declares the inter-stage words to be float64 bit patterns
	// (math.Float64bits): prediction extrapolates in float arithmetic and
	// validation compares as floats, with RelTol as the optional relative
	// tolerance (see ReduceFloatOptions.RelTol — nonzero tolerance trades
	// exactness for commit rate).
	Float  bool
	RelTol float64
}

// Pipeline runs tokens [0, nTokens) through the stages in order and
// returns the final live-out word. For every token, stages[0] executes on
// the non-speculative thread while stages[1:] are forked speculatively —
// each at its own fork point, from a predicted live-in — and joined in
// stage order, validating each prediction against the actual upstream
// live-out. Stage forks are warm-gated exactly like Reduce continuations:
// until a stage's live-in history supports a real prediction, the stage
// runs inline (the first token, or two tokens for Stride, calibrate the
// predictors).
func Pipeline(t *Thread, nTokens int, init uint64, opts PipelineOptions, stages ...Stage) uint64 {
	return pipeline(t, nTokens, init, opts, true, stages)
}

// pipeline is Pipeline; keyed is false only in the hand-off benchmark, whose
// empty stages have to keep forking: they take raw ids from the far end of
// the table, which stand for no body until a program has 64.
func pipeline(t *Thread, nTokens int, init uint64, opts PipelineOptions, keyed bool, stages []Stage) uint64 {
	nStages := len(stages)
	if nTokens <= 0 || nStages == 0 {
		return init
	}
	model := opts.Model
	if model == InOrder {
		model = OutOfOrder
	}
	rt := t.Runtime()
	// One fork point per speculated stage (stages[0] never forks), interned
	// in stage order under the stage's body key plus its position — stages
	// made by one constructor share a code pointer and must not share a
	// point.
	points := make([]int, nStages-1)
	for s := range points {
		if keyed {
			points[s] = rt.PointFor(bodyKey(stages[s+1]) + uintptr(s))
		} else {
			points[s] = core.NumPoints - 1 - s
		}
	}
	ranks := make([]Rank, core.NumPoints)

	pred := predict.New(opts.Predictor)
	predictIn := func(s int) (uint64, bool) {
		if !pred.Warm(s, 0) {
			return 0, false
		}
		if opts.Float {
			v, ok := pred.PredictFloat64(s, 0)
			return math.Float64bits(v), ok
		}
		return pred.Predict(s, 0)
	}
	observeIn := func(s int, actual uint64) {
		if opts.Float {
			pred.ObserveFloat64(s, 0, math.Float64frombits(actual), opts.RelTol)
			return
		}
		pred.Observe(s, 0, actual)
	}
	validateIn := func(p int, actual uint64) {
		if opts.Float {
			t.ValidateRegvarFloat64Rel(ranks, p, 1, math.Float64frombits(actual), opts.RelTol)
			return
		}
		t.ValidateRegvarInt64(ranks, p, 1, int64(actual))
	}

	// One region closure per speculated stage: fetch (token, in), run the
	// stage, save the live-out.
	regions := make([]RegionFunc, nStages)
	for s := 1; s < nStages; s++ {
		stage := stages[s]
		regions[s] = func(c *Thread) uint32 {
			token := int(c.GetRegvarInt64(0))
			in := uint64(c.GetRegvarInt64(1))
			c.SaveRegvarInt64(2, int64(stage(c, token, in)))
			return 0
		}
	}

	forked := make([]bool, nStages)
	in := init
	for token := 0; token < nTokens; token++ {
		// Cooperative cancellation between tokens (see For).
		t.CancelPoint()
		// Fork the downstream stages in reverse order so the children
		// stack pops them in stage (join) order — the same logically-
		// later-subtrees-first discipline as tree-form recursion.
		for s := nStages - 1; s >= 1; s-- {
			predicted, ok := predictIn(s)
			if !ok {
				continue
			}
			if h := t.ForkBody(ranks, points[s-1], model); h != nil {
				h.SetRegvarInt64(0, int64(token))
				h.SetRegvarInt64(1, int64(predicted))
				h.Start(regions[s])
				forked[s] = true
			}
		}
		cur := stages[0](t, token, in)
		for s := 1; s < nStages; s++ {
			// cur is the actual live-in of stage s for this token: extend
			// the stage's prediction history before resolving its fork.
			observeIn(s, cur)
			if forked[s] {
				forked[s] = false
				validateIn(points[s-1], cur)
				res := t.Join(ranks, points[s-1])
				if res.Committed() {
					cur = uint64(res.RegvarInt64(2))
					continue
				}
			}
			span := t.StartInline(points[s-1])
			cur = stages[s](t, token, cur)
			span.Stop()
		}
		in = cur
	}
	return in
}
