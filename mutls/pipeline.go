package mutls

import (
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
// A constructor called from two places can build two copies of one stage
// literal, two fork points with half the samples each (see bodyKey).
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
	// The call's state: on the stack up to four stages, one allocation
	// past that. One fork point per stage, interned under the stage's body
	// key plus its position — stages made by one constructor share a code
	// pointer and must not share a point: the stages that can head a forked
	// group in stage order, then stages[0], which only runs inline and is
	// timed for the cut.
	var short [4]pipeStage
	ps := short[:min(nStages, len(short))]
	if nStages > len(short) {
		ps = make([]pipeStage, nStages)
	}
	for i := 1; i <= nStages; i++ {
		s := i % nStages
		ps[s].point = core.NumPoints - i
		if keyed {
			ps[s].point = rt.PointFor(bodyKey(stages[s]) + uintptr(i-1))
		}
	}
	var ranks [core.NumPoints]Rank

	width := rt.CPULimit()
	cut := func() {
		cutStages(ps, width)
		for k := range ps {
			ps[k].cutAt = ps[k].weight
			next := -1 // a group's last stage ends its chain
			if k+1 < nStages && ps[k+1].end < 0 {
				next = ps[k+1].point
			}
			t.Fuse(ps[k].point, next)
		}
	}
	cut()

	in := init
	for token := 0; token < nTokens; token++ {
		// Cooperative cancellation between tokens (see For).
		t.CancelPoint()
		// A stage's inline time moves by a third with the host's fast and
		// slow spells (loop-memory's pass 2: 9.5-15 us); the cut follows a
		// move past that band, not every sample.
		moved := false
		for s := range ps {
			w := t.InlineNS(ps[s].point)
			moved = moved || 4*w < 3*ps[s].cutAt || 3*w > 4*ps[s].cutAt
			ps[s].weight = w
		}
		if moved {
			cut()
		}
		// Fork the later groups in reverse order so the children stack pops
		// them in join order — the same logically-later-subtrees-first
		// discipline as tree-form recursion. A group forks only once its
		// live-in history supports a real prediction.
		for s := nStages - 1; s >= 1; s-- {
			st := &ps[s]
			st.tried = st.end >= 0 && st.live.Warm(opts.Predictor)
			if !st.tried {
				continue
			}
			predicted, _ := st.live.Predict(opts.Predictor)
			if h := t.ForkBody(ranks[:], st.point, model); h != nil {
				h.SetRegvarInt64(0, int64(token))
				h.SetRegvarInt64(1, int64(predicted))
				h.Start(st.regionFor(stages[s : st.end+1]))
				st.forked = true
			}
		}
		cur := in
		for s := 0; s < nStages; s = ps[s].end + 1 {
			st, e := &ps[s], ps[s].end
			// cur is the actual live-in of stage s for this token: extend
			// the stage's prediction history before resolving its fork.
			if s > 0 {
				st.live.Observe(cur)
			}
			if st.forked {
				st.forked = false
				t.ValidateRegvarInt64(ranks[:], st.point, 1, int64(cur))
				res := t.Join(ranks[:], st.point)
				if res.Committed() {
					for k := s + 1; k <= e; k++ {
						ps[k].live.Observe(uint64(res.RegvarInt64(1 + k - s)))
					}
					cur = uint64(res.RegvarInt64(2 + e - s))
					continue
				}
			}
			for k := s; k <= e; k++ {
				if k > s {
					ps[k].live.Observe(cur)
				}
				// A forked group's run is timed only when it stands in for a
				// fork: the tokens a cold predictor keeps inline are a call's
				// first, whose skewed stages have no block yet and would read
				// as a fraction of a microsecond.
				var span core.InlineSpan
				if s == 0 || st.tried {
					span = t.StartInline(ps[k].point)
				}
				cur = stages[k](t, token, cur)
				span.Stop()
			}
		}
		in = cur
	}
	return in
}

// pipeStage is one stage's part of a Pipeline call's state. end is the last
// stage of the group it heads (-1: none); forked and tried mark that group
// forked, and a fork candidate (warm predictor), this token; region is the
// group's region, made at its first fork in the shape the cut gave it.
type pipeStage struct {
	point         int
	live          predict.History // the stage's live-in history
	weight, cutAt int64           // inline time now and at the last cut
	end           int
	forked, tried bool
	region        RegionFunc
	regionLen     int
}

// regionFor returns the group's region: fetch (token, in), run the
// group's stages in turn, save each one's live-out (the first in slot 2) —
// the join reads the last as the group's and the others as the live-ins it
// observes for the stages after the first.
func (st *pipeStage) regionFor(group []Stage) RegionFunc {
	if st.region == nil || st.regionLen != len(group) {
		st.region, st.regionLen = func(c *Thread) uint32 {
			token := int(c.GetRegvarInt64(0))
			in := uint64(c.GetRegvarInt64(1))
			for k, stage := range group {
				in = stage(c, token, in)
				c.SaveRegvarInt64(2+k, int64(in))
			}
			return 0
		}, len(group)
	}
	return st.region
}

// cutStages cuts the stages, by weight, into width + 1 contiguous groups
// whose heaviest is as light as a cut can make it, and sets each stage's
// end. Of equally light cuts it takes the one that puts the most in the
// early groups: a later group runs speculatively, where the same work costs
// more. Without a time for every stage, or with a CPU for every stage but
// the first, every stage is its own group.
func cutStages(ps []pipeStage, width int) {
	n := len(ps)
	timed := true
	for s := range ps {
		timed = timed && ps[s].weight > 0
		ps[s].end = s
	}
	if width < 1 || width >= n-1 || !timed {
		return
	}
	// sum[j]-sum[i] weighs stages [i, j); best[j*n+i] is the heaviest group
	// of the best cut of stages [i, n) into j groups. Small cuts keep their
	// tables on the stack.
	groups := width + 1
	var small [64]int64
	tables := small[:]
	if need := n + 1 + (groups+1)*n; need > len(small) {
		tables = make([]int64, need)
	}
	sum, best := tables[:n+1], tables[n+1:]
	for i := range ps {
		sum[i+1] = sum[i] + ps[i].weight
	}
	for j := 1; j <= groups; j++ {
		for i := 0; i+j <= n; i++ {
			b := sum[n] - sum[i]
			for e := i + 1; j > 1 && e+j-1 <= n; e++ {
				b = min(b, max(sum[e]-sum[i], best[(j-1)*n+e]))
			}
			best[j*n+i] = b
		}
	}
	for s := range ps {
		ps[s].end = -1
	}
	i := 0
	for j := groups; j > 1; j-- {
		e := n - j + 1
		for max(sum[e]-sum[i], best[(j-1)*n+e]) > best[j*n+i] {
			e--
		}
		ps[i].end, i = e-1, e
	}
	ps[i].end = n - 1
}
