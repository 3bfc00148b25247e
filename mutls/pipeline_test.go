package mutls_test

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/mutls"
)

// pipeResult is what the reference pipeline computes: the final chain word
// and the accumulator cell.
type pipeResult struct {
	final uint64
	cell  int64
}

// runPipe drives a 3-stage pipeline with skewed memory flow: stage 0
// produces a[u], stage 1 consumes a[u-1] into b[u-1] (one token behind, so
// the producing write is committed), stage 2 folds b[u-2] into a shared
// cell. The chain word is a token cursor. With spec=false the same stage
// closures run inline in the same token order — the sequential reference.
func runPipe(rt *mutls.Runtime, tokens int, spec bool, opts mutls.PipelineOptions) pipeResult {
	var out pipeResult
	rt.Run(func(t0 *mutls.Thread) {
		n := tokens
		a := t0.Alloc(8 * n)
		b := t0.Alloc(8 * n)
		cell := t0.Alloc(8)
		t0.StoreInt64(cell, 0)
		stages := []mutls.Stage{
			func(c *mutls.Thread, token int, in uint64) uint64 {
				if token < n {
					c.Tick(150)
					c.StoreInt64(a+mutls.Addr(8*token), int64(token)*3+1)
				}
				return in + 1
			},
			func(c *mutls.Thread, token int, in uint64) uint64 {
				if u := token - 1; u >= 0 && u < n {
					c.Tick(150)
					v := c.LoadInt64(a + mutls.Addr(8*u))
					c.StoreInt64(b+mutls.Addr(8*u), v*v)
				}
				return in + 1
			},
			func(c *mutls.Thread, token int, in uint64) uint64 {
				if u := token - 2; u >= 0 && u < n {
					c.Tick(150)
					s := c.LoadInt64(cell)
					c.StoreInt64(cell, s+c.LoadInt64(b+mutls.Addr(8*u)))
				}
				return in + 1
			},
		}
		nTokens := n + 2
		if spec {
			out.final = mutls.Pipeline(t0, nTokens, 0, opts, stages...)
		} else {
			in := uint64(0)
			for token := 0; token < nTokens; token++ {
				for _, stage := range stages {
					in = stage(t0, token, in)
				}
			}
			out.final = in
		}
		out.cell = t0.LoadInt64(cell)
		t0.Free(a)
		t0.Free(b)
		t0.Free(cell)
	})
	return out
}

func TestPipelineMatchesSequentialAcrossModels(t *testing.T) {
	const tokens = 40
	want := runPipe(newRuntime(t, 0, nil), tokens, false, mutls.PipelineOptions{})
	for _, model := range models4 {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{0, 1, 4} {
				rt := newRuntime(t, cpus, nil)
				opts := mutls.PipelineOptions{Model: model, Predictor: mutls.Stride}
				if got := runPipe(rt, tokens, true, opts); got != want {
					t.Fatalf("cpus=%d: pipeline = %+v, want %+v", cpus, got, want)
				}
			}
		})
	}
}

func TestPipelineAcrossBackends(t *testing.T) {
	const tokens = 40
	want := runPipe(newRuntime(t, 0, nil), tokens, false, mutls.PipelineOptions{})
	for _, backend := range mutls.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			rt := newRuntime(t, 4, func(o *mutls.Options) {
				o.Buffering = mutls.Buffering{Backend: backend}
			})
			opts := mutls.PipelineOptions{Predictor: mutls.Stride}
			if got := runPipe(rt, tokens, true, opts); got != want {
				t.Fatalf("pipeline = %+v, want %+v", got, want)
			}
			if s := rt.Stats(); s.Commits == 0 {
				t.Fatalf("pipeline committed nothing (%d rollbacks)", s.Rollbacks)
			}
		})
	}
}

func TestPipelineStagesCommit(t *testing.T) {
	rt := newRuntime(t, 8, nil)
	runPipe(rt, 64, true, mutls.PipelineOptions{Predictor: mutls.Stride})
	s := rt.Stats()
	if s.Commits == 0 {
		t.Fatalf("no committed stage speculations (%d rollbacks)", s.Rollbacks)
	}
	// Two speculated stages over 66 tokens: well over half the stage
	// executions should commit once the predictors are warm.
	if s.Commits < 64 {
		t.Fatalf("only %d commits over a 66-token, 2-speculated-stage pipeline (%d rollbacks)",
			s.Commits, s.Rollbacks)
	}
}

func TestPipelineUnderForcedRollbacks(t *testing.T) {
	const tokens = 40
	want := runPipe(newRuntime(t, 0, nil), tokens, false, mutls.PipelineOptions{})
	for _, prob := range []float64{0.3, 1.0} {
		rt := newRuntime(t, 4, func(o *mutls.Options) {
			o.RollbackProb = prob
			o.Seed = 11
		})
		opts := mutls.PipelineOptions{Predictor: mutls.Stride}
		if got := runPipe(rt, tokens, true, opts); got != want {
			t.Fatalf("prob=%v: pipeline = %+v, want %+v", prob, got, want)
		}
		if prob == 1.0 {
			if s := rt.Stats(); s.Rollbacks == 0 {
				t.Fatal("RollbackProb=1 produced no rollbacks")
			}
		}
	}
}

// TestPipelineStageNeverRunsBesideItself checks the guarantee Stage states,
// with a re-entry detector on every stage and on every rank. Forced
// rollbacks put inline re-executions next to the forks they replace, and the
// last stage is the slow one, so its fork is still running when an earlier
// group's join comes back. On 1-3 CPUs under InOrder, OutOfOrder and Mixed
// no stage runs while it already runs; under every model, MixedLinear
// included, no rank runs two stages at once.
func TestPipelineStageNeverRunsBesideItself(t *testing.T) {
	const tokens = 120
	for _, model := range models4 {
		for cpus := 1; cpus <= 3; cpus++ {
			rt := newRuntime(t, cpus, func(o *mutls.Options) {
				o.RollbackProb = 0.5
				o.Seed = 3
			})
			var inStage [3]atomic.Int32
			inRank := make([]atomic.Int32, cpus+1)
			var stageHits, rankHits atomic.Int32
			stages := make([]mutls.Stage, len(inStage))
			for s := range stages {
				stages[s] = func(c *mutls.Thread, token int, in uint64) uint64 {
					if inStage[s].Add(1) != 1 {
						stageHits.Add(1)
					}
					if inRank[c.Rank()].Add(1) != 1 {
						rankHits.Add(1)
					}
					for i := 0; i < 1+50*(s/2); i++ {
						c.Tick(10)
						runtime.Gosched()
					}
					inRank[c.Rank()].Add(-1)
					inStage[s].Add(-1)
					return in + 1
				}
			}
			var got uint64
			rt.Run(func(t0 *mutls.Thread) {
				got = mutls.Pipeline(t0, tokens, 0, mutls.PipelineOptions{Model: model, Predictor: mutls.Stride}, stages...)
			})
			s := rt.Stats()
			if got != 3*tokens || s.Rollbacks == 0 || s.Commits == 0 {
				t.Fatalf("%v on %d CPUs: live-out %d (want %d), %d commits, %d rollbacks: want both",
					model, cpus, got, 3*tokens, s.Commits, s.Rollbacks)
			}
			if rankHits.Load() != 0 || model != mutls.MixedLinear && stageHits.Load() != 0 {
				t.Fatalf("%v on %d CPUs: a stage started while it was running %d times, on a rank already running one %d times",
					model, cpus, stageHits.Load(), rankHits.Load())
			}
		}
	}
}

// TestPipelineFloatMode exercises float64 inter-stage words, which travel
// and validate as their bits: the chain cursor advances by a constant 0.5
// per stage, so the stride over the bit patterns holds within a binade and
// forks commit; with a jittered cursor the stride mispredicts and those
// groups roll back. Either way the result is the bit-identical sequential
// one.
func TestPipelineFloatMode(t *testing.T) {
	const tokens = 48
	run := func(jitter float64, cpus int) (float64, *mutls.Runtime) {
		rt := newRuntime(t, cpus, nil)
		var final float64
		rt.Run(func(t0 *mutls.Thread) {
			stage := func(c *mutls.Thread, token int, in uint64) uint64 {
				c.Tick(150)
				v := math.Float64frombits(in) + 0.5 + jitter*float64(token%3)
				return math.Float64bits(v)
			}
			opts := mutls.PipelineOptions{Predictor: mutls.Stride}
			final = math.Float64frombits(mutls.Pipeline(t0, tokens, math.Float64bits(1.0), opts, stage, stage, stage))
		})
		return final, rt
	}

	want, _ := run(0, 0) // sequential reference (no CPUs = no forks)
	got, rt := run(0, 4)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("float pipeline = %v, want bit-exact %v", got, want)
	}
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("constant-stride float pipeline committed nothing (%d rollbacks)", s.Rollbacks)
	}

	const jitter = 1e-12
	wantJ, _ := run(jitter, 0)
	gotJ, rtJ := run(jitter, 4)
	if math.Float64bits(gotJ) != math.Float64bits(wantJ) {
		t.Fatalf("jittered float pipeline = %v, want bit-exact %v", gotJ, wantJ)
	}
	if s := rtJ.Stats(); s.Rollbacks == 0 {
		t.Fatalf("jittered float pipeline rolled nothing back (%d commits)", s.Commits)
	}
}

// TestCutStages: the stage cut is a pure function of the stages' inline
// times and the speculative CPUs. The heaviest group is as light as a cut
// can make it; ties go to the cut that keeps more work inline; every stage
// is its own group while a time is missing, without a CPU, or with a CPU
// for every stage but the first.
func TestCutStages(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []int64
		width   int
		want    []int
	}{
		{"stencil on one CPU: {pass 1} | {pass 2 + fold}", []int64{10, 12, 5}, 1, []int{0, 1}},
		{"a heavy last stage forks alone", []int64{5, 5, 12}, 1, []int{0, 2}},
		{"a tie keeps the middle stage inline", []int64{4, 4, 4}, 1, []int{0, 2}},
		{"ties over three groups", []int64{1, 1, 1, 1, 1}, 2, []int{0, 2, 4}},
		{"a tiny stage rides inside its group", []int64{40, 20, 1, 20}, 1, []int{0, 1}},
		{"two CPUs, four stages", []int64{30, 10, 10, 30}, 2, []int{0, 1, 3}},
		{"a CPU for every stage but the first", []int64{5, 9, 3}, 2, []int{0, 1, 2}},
		{"more CPUs than stages", []int64{5, 9, 3}, 7, []int{0, 1, 2}},
		{"a missing time", []int64{10, 0, 5}, 1, []int{0, 1, 2}},
		{"no time yet", []int64{0, 0, 0, 0}, 2, []int{0, 1, 2, 3}},
		{"no CPU", []int64{10, 12, 5}, 0, []int{0, 1, 2}},
		{"one stage", []int64{7}, 1, []int{0}},
	} {
		if got := mutls.CutStages(tc.weights, tc.width); !slices.Equal(got, tc.want) {
			t.Errorf("%s: cut(%v, %d CPUs) = %v, want %v", tc.name, tc.weights, tc.width, got, tc.want)
		}
	}
}

// TestPipelineDegenerate pins the edge cases: no tokens, no stages and a
// single stage (nothing to speculate) all run inline and return the right
// chain word.
func TestPipelineDegenerate(t *testing.T) {
	rt := newRuntime(t, 2, nil)
	rt.Run(func(t0 *mutls.Thread) {
		if got := mutls.Pipeline(t0, 0, 42, mutls.PipelineOptions{}); got != 42 {
			t.Fatalf("0 stages: %d, want init 42", got)
		}
		stage := func(c *mutls.Thread, token int, in uint64) uint64 { return in + 2 }
		if got := mutls.Pipeline(t0, 0, 7, mutls.PipelineOptions{}, stage); got != 7 {
			t.Fatalf("0 tokens: %d, want init 7", got)
		}
		if got := mutls.Pipeline(t0, 5, 0, mutls.PipelineOptions{}, stage); got != 10 {
			t.Fatalf("1 stage x 5 tokens: %d, want 10", got)
		}
	})
}
