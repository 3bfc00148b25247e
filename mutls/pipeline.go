package mutls

import (
	"slices"

	"repro/internal/core"
	"repro/internal/predict"
)

// This file implements stage-parallel speculative pipelines, the
// DSWP-style decoupled shape of the related work: a stream of tokens flows
// through an ordered list of stages, and while the non-speculative thread
// executes a token's first group of stages, each later group of the same
// token runs speculatively from a *predicted* upstream live-out. Each stage
// is its own fork point (so the per-point counters profile and time every
// stage separately), tokens are processed strictly in order, and a group's
// live-in is validated at its join with MUTLS_validate_local — a
// misprediction, or a conflicting memory access, rolls the group back and
// it re-executes inline with the true live-in, so the pipeline keeps the
// exact token-major sequential semantics:
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
//
// Under InOrder, OutOfOrder and Mixed a stage never runs beside itself: a
// token's groups are all joined before the next token forks, and a rolled
// back group re-runs only after its child stopped. Under MixedLinear a
// rollback squashes the later groups, whose children may still be running
// when they re-run inline: Go storage a stage keeps across tokens is safe
// there only per c.Rank() — a rank runs one thread, its stages in turn.
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
}

// Pipeline runs tokens [0, nTokens) through the stages in order and
// returns the final live-out word. With W speculative CPUs (the runtime's
// CPU limit) the stages are cut into W + 1 contiguous groups of
// nearest-equal inline time, as measured under real timing and cut again
// when a stage's time leaves ¾–4⁄3 of what it was cut on. For every token
// the first group executes on the non-speculative thread while each later
// group is forked at its first stage's point, from a predicted live-in, and
// joined in order, validating the prediction against the actual upstream
// live-out. Until every stage is timed (always under virtual timing) every
// stage is its own group, forked last-first. Forks are warm-gated exactly
// like Reduce continuations: until a group's live-in history supports a real
// prediction it runs inline (the first token, or two tokens for Stride,
// calibrate the predictors).
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
	// One fork point per stage, interned under the stage's body key plus its
	// position — stages made by one constructor share a code pointer and
	// must not share a point: the stages that can head a forked group in
	// stage order, then stages[0], which only runs inline and is timed for
	// the cut.
	points := make([]int, nStages)
	for i := 1; i <= nStages; i++ {
		s := i % nStages
		points[s] = core.NumPoints - i
		if keyed {
			points[s] = rt.PointFor(bodyKey(stages[s]) + uintptr(i-1))
		}
	}
	ranks := make([]Rank, core.NumPoints)

	pred := predict.New(opts.Predictor)
	predictIn := func(s int) (uint64, bool) {
		if !pred.Warm(s, 0) {
			return 0, false
		}
		return pred.Predict(s, 0)
	}

	// The cut: firsts holds each group's first stage, regions the forked
	// groups' region closures by first stage, cutAt the inline times the cut
	// was made from.
	width := rt.CPULimit()
	var firsts []int
	regions := make([]RegionFunc, nStages)
	weights, cutAt := make([]int64, nStages), make([]int64, nStages)
	last := func(g int) int {
		if g+1 < len(firsts) {
			return firsts[g+1] - 1
		}
		return nStages - 1
	}
	cut := func() {
		firsts = cutStages(weights, width)
		copy(cutAt, weights)
		for g, s := range firsts {
			regions[s] = groupRegion(stages[s : last(g)+1])
			t.Fuse(points[s : last(g)+1])
		}
	}
	cut()

	// forked and tried mark, by a group's first stage, the groups forked and
	// those that were fork candidates (warm predictor) this token.
	forked, tried := make([]bool, nStages), make([]bool, nStages)
	in := init
	for token := 0; token < nTokens; token++ {
		// Cooperative cancellation between tokens (see For).
		t.CancelPoint()
		// A stage's inline time moves by a third with the host's fast and
		// slow spells (loop-memory's pass 2: 9.5-15 us); the cut follows a
		// move past that band, not every sample.
		moved := false
		for s, p := range points {
			w := t.InlineNS(p)
			moved = moved || 4*w < 3*cutAt[s] || 3*w > 4*cutAt[s]
			weights[s] = w
		}
		if moved {
			cut()
		}
		// Fork the later groups in reverse order so the children stack pops
		// them in join order — the same logically-later-subtrees-first
		// discipline as tree-form recursion.
		for g := len(firsts) - 1; g >= 1; g-- {
			s := firsts[g]
			predicted, ok := predictIn(s)
			tried[s] = ok
			if !ok {
				continue
			}
			if h := t.ForkBody(ranks, points[s], model); h != nil {
				h.SetRegvarInt64(0, int64(token))
				h.SetRegvarInt64(1, int64(predicted))
				h.Start(regions[s])
				forked[s] = true
			}
		}
		cur := in
		for g, s := range firsts {
			e := last(g)
			// cur is the actual live-in of stage s for this token: extend
			// the stage's prediction history before resolving its fork.
			if s > 0 {
				pred.Observe(s, 0, cur)
			}
			if forked[s] {
				forked[s] = false
				t.ValidateRegvarInt64(ranks, points[s], 1, int64(cur))
				res := t.Join(ranks, points[s])
				if res.Committed() {
					for k := s + 1; k <= e; k++ {
						pred.Observe(k, 0, uint64(res.RegvarInt64(1+k-s)))
					}
					cur = uint64(res.RegvarInt64(2 + e - s))
					continue
				}
			}
			for k := s; k <= e; k++ {
				if k > s {
					pred.Observe(k, 0, cur)
				}
				// A forked group's run is timed only when it stands in for a
				// fork: the tokens a cold predictor keeps inline are a call's
				// first, whose skewed stages have no block yet and would read
				// as a fraction of a microsecond.
				var span core.InlineSpan
				if g == 0 || tried[s] {
					span = t.StartInline(points[k])
				}
				cur = stages[k](t, token, cur)
				span.Stop()
			}
		}
		in = cur
	}
	return in
}

// groupRegion is the region of one forked group: fetch (token, in), run
// the group's stages in turn, save each one's live-out (the first in slot
// 2) — the join reads the last as the group's and the others as the live-ins
// it observes for the stages after the first.
func groupRegion(group []Stage) RegionFunc {
	return func(c *Thread) uint32 {
		token := int(c.GetRegvarInt64(0))
		in := uint64(c.GetRegvarInt64(1))
		for k, stage := range group {
			in = stage(c, token, in)
			c.SaveRegvarInt64(2+k, int64(in))
		}
		return 0
	}
}

// cutStages cuts stages of the given inline times into width + 1
// contiguous groups whose heaviest is as light as a cut can make it, and
// returns each group's first stage. Of equally light cuts it takes the one
// that puts the most in the early groups: a later group runs speculatively,
// where the same work costs more. Without a time for every stage, or with a
// CPU for every stage but the first, every stage is its own group.
func cutStages(weights []int64, width int) []int {
	n := len(weights)
	if width < 1 || width >= n-1 || slices.Min(weights) <= 0 {
		firsts := make([]int, n)
		for s := range firsts {
			firsts[s] = s
		}
		return firsts
	}
	sum := make([]int64, n+1) // sum[j]-sum[i] weighs stages [i, j)
	for i, w := range weights {
		sum[i+1] = sum[i] + w
	}
	// best[j][i] is the heaviest group of the best cut of stages [i, n) into
	// j groups.
	groups := width + 1
	best := make([][]int64, groups+1)
	for j := 1; j <= groups; j++ {
		best[j] = make([]int64, n)
		for i := 0; i+j <= n; i++ {
			best[j][i] = sum[n] - sum[i]
			for e := i + 1; j > 1 && e+j-1 <= n; e++ {
				best[j][i] = min(best[j][i], max(sum[e]-sum[i], best[j-1][e]))
			}
		}
	}
	firsts := []int{0}
	for i, j := 0, groups; j > 1; j-- {
		e := n - j + 1
		for max(sum[e]-sum[i], best[j-1][e]) > best[j][i] {
			e--
		}
		firsts = append(firsts, e)
		i = e
	}
	return firsts
}
