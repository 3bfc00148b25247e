package mutls_test

import (
	"reflect"
	"testing"

	"repro/mutls"
)

// allModels includes the MixedLinear ablation baseline, unlike the main
// test file's three-model set.
var allModels = []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed, mutls.MixedLinear}

// --- ChunkPolicy.Bounds regression (divide-by-zero / empty-chunk fix) ---

// TestBoundsNeverPanics sweeps Bounds over degenerate inputs, including
// the chunks <= 0 case that used to divide by zero and out-of-range
// indices, asserting sane clamped bounds everywhere.
func TestBoundsNeverPanics(t *testing.T) {
	p := mutls.ChunkPolicy{}
	for _, n := range []int{-5, 0, 1, 7, 64, 1000} {
		for _, chunks := range []int{-3, 0, 1, 2, 7, 64, 1000} {
			for idx := -2; idx <= chunks+2; idx++ {
				lo, hi := p.Bounds(n, chunks, idx)
				limit := n
				if limit < 0 {
					limit = 0
				}
				if lo > hi || lo < 0 || hi > limit {
					t.Fatalf("Bounds(%d, %d, %d) = [%d, %d): out of range", n, chunks, idx, lo, hi)
				}
			}
		}
	}
}

// TestBoundsTileExactly: for every valid chunk count the chunks are
// contiguous, cover [0, n) exactly, and differ in size by at most one
// (the remainder is spread, not dumped on the last chunk).
func TestBoundsTileExactly(t *testing.T) {
	p := mutls.ChunkPolicy{}
	for _, n := range []int{1, 7, 64, 1000} {
		for _, chunks := range []int{1, 2, 7, 63, 64, n, n + 13} {
			prev, minSz, maxSz := 0, n+1, 0
			for idx := 0; idx < chunks; idx++ {
				lo, hi := p.Bounds(n, chunks, idx)
				if lo != prev {
					t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d", n, chunks, idx, lo, prev)
				}
				prev = hi
				if sz := hi - lo; sz > 0 {
					if sz < minSz {
						minSz = sz
					}
					if sz > maxSz {
						maxSz = sz
					}
				}
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: chunks cover [0, %d), want [0, %d)", n, chunks, prev, n)
			}
			if chunks <= n && maxSz-minSz > 1 {
				t.Fatalf("n=%d chunks=%d: chunk sizes range [%d, %d], want balanced", n, chunks, minSz, maxSz)
			}
		}
	}
}

// --- For / ForRange degenerate inputs across all four forking models ---

// fillSum runs a ForRange array fill and returns the checksum read back
// after all joins.
func fillSum(rt *mutls.Runtime, n int, opts mutls.ForOptions) int64 {
	var sum int64
	rt.Run(func(t *mutls.Thread) {
		arr := t.Alloc(8 * (n + 1))
		mutls.ForRange(t, n, opts, func(c *mutls.Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Tick(4)
				c.StoreInt64(arr+mutls.Addr(8*i), int64(i)*7+3)
			}
		})
		for i := 0; i < n; i++ {
			sum += t.LoadInt64(arr + mutls.Addr(8*i))
		}
		t.Free(arr)
	})
	return sum
}

func wantFill(n int) int64 {
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*7 + 3
	}
	return want
}

// TestForRangeDegenerateInputs: n smaller than MinPerChunk, n smaller
// than the chunk count, no speculative CPUs at all, and single-chunk runs
// must all preserve sequential semantics without panicking, under every
// forking model.
func TestForRangeDegenerateInputs(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		cpus   int
		policy mutls.ChunkPolicy
	}{
		{"n<MinPerChunk", 3, 4, mutls.ChunkPolicy{MaxChunks: 8, MinPerChunk: 16}},
		{"n<chunks", 5, 4, mutls.ChunkPolicy{MaxChunks: 64}},
		{"zeroCPUs", 100, 0, mutls.ChunkPolicy{MaxChunks: 8}},
		{"singleChunk", 40, 4, mutls.ChunkPolicy{MaxChunks: 1}},
		{"n=1", 1, 4, mutls.ChunkPolicy{}},
		{"n=0", 0, 4, mutls.ChunkPolicy{}},
	}
	for _, model := range allModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, tc := range cases {
				rt := newRuntime(t, tc.cpus, nil)
				opts := mutls.ForOptions{Model: model, Policy: tc.policy}
				if got := fillSum(rt, tc.n, opts); got != wantFill(tc.n) {
					t.Errorf("%s: ForRange sum = %d, want %d", tc.name, got, wantFill(tc.n))
				}
				rt.Close()
			}
		})
	}
}

// TestForDegenerateInputs: the chunk-number form of the same degeneracies.
func TestForDegenerateInputs(t *testing.T) {
	for _, model := range allModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, tc := range []struct{ nChunks, cpus int }{
				{0, 4}, {1, 4}, {1, 0}, {3, 0}, {64, 1},
			} {
				rt := newRuntime(t, tc.cpus, nil)
				var sum int64
				rt.Run(func(t0 *mutls.Thread) {
					arr := t0.Alloc(8 * (tc.nChunks + 1))
					mutls.For(t0, tc.nChunks, mutls.ForOptions{Model: model}, func(c *mutls.Thread, idx int) {
						c.Tick(2)
						c.StoreInt64(arr+mutls.Addr(8*idx), int64(idx)+1)
					})
					for i := 0; i < tc.nChunks; i++ {
						sum += t0.LoadInt64(arr + mutls.Addr(8*i))
					}
					t0.Free(arr)
				})
				want := int64(tc.nChunks) * int64(tc.nChunks+1) / 2
				if sum != want {
					t.Errorf("nChunks=%d cpus=%d: sum = %d, want %d", tc.nChunks, tc.cpus, sum, want)
				}
				rt.Close()
			}
		})
	}
}

// --- AdaptivePolicy ---

// TestAdaptiveMatchesSequential: the feedback-driven chunker preserves
// sequential semantics across models, CPU counts and forced rollbacks.
func TestAdaptiveMatchesSequential(t *testing.T) {
	const n = 4096
	want := wantFill(n)
	for _, model := range allModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{0, 1, 4} {
				for _, prob := range []float64{0, 0.3} {
					rt := newRuntime(t, cpus, func(o *mutls.Options) {
						o.RollbackProb = prob
						o.Seed = 11
					})
					opts := mutls.ForOptions{Model: model, Chunker: mutls.AdaptivePolicy{}}
					if got := fillSum(rt, n, opts); got != want {
						t.Errorf("cpus=%d prob=%v: sum = %d, want %d", cpus, prob, got, want)
					}
					rt.Close()
				}
			}
		})
	}
}

// TestAdaptiveForGroupsIndices: with a Chunker, For groups consecutive
// indices into one speculation but still visits each exactly once.
func TestAdaptiveForGroupsIndices(t *testing.T) {
	const nChunks = 64
	rt := newRuntime(t, 4, nil)
	var bad int
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * nChunks)
		opts := mutls.ForOptions{Model: mutls.InOrder, Chunker: mutls.AdaptivePolicy{Start: 4}}
		mutls.For(t0, nChunks, opts, func(c *mutls.Thread, idx int) {
			c.Tick(16)
			c.StoreInt64(arr+mutls.Addr(8*idx), c.LoadInt64(arr+mutls.Addr(8*idx))+1)
		})
		for i := 0; i < nChunks; i++ {
			if t0.LoadInt64(arr+mutls.Addr(8*i)) != 1 {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d indices not visited exactly once", bad)
	}
}

// recorder wraps a Chunker and records every schedule it emits.
type recorder struct {
	inner mutls.Chunker
	runs  [][]int
}

func (r *recorder) NewRun(n, cpus int) mutls.ChunkController {
	r.runs = append(r.runs, nil)
	return &recRun{inner: r.inner.NewRun(n, cpus), r: r, idx: len(r.runs) - 1}
}

type recRun struct {
	inner mutls.ChunkController
	r     *recorder
	idx   int
}

func (x *recRun) Next(lo int) int {
	hi := x.inner.Next(lo)
	x.r.runs[x.idx] = append(x.r.runs[x.idx], hi)
	return hi
}

func (x *recRun) Observe(fb mutls.ChunkFeedback) { x.inner.Observe(fb) }

// TestAdaptiveDeterministicSchedule: under virtual timing on a single
// speculative CPU (where the execution itself is deterministic), the same
// seed must reproduce the same chunk schedule, including under forced
// rollbacks that exercise the shrink/grow paths.
func TestAdaptiveDeterministicSchedule(t *testing.T) {
	schedule := func() [][]int {
		rec := &recorder{inner: mutls.AdaptivePolicy{Window: 2}}
		rt := newRuntime(t, 1, func(o *mutls.Options) {
			o.RollbackProb = 0.3
			o.Seed = 42
		})
		defer rt.Close()
		opts := mutls.ForOptions{Model: mutls.InOrder, Chunker: rec}
		fillSum(rt, 4096, opts)
		return rec.runs
	}
	a, b := schedule(), schedule()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different chunk schedules:\n%v\n%v", a, b)
	}
	if len(a) != 1 || len(a[0]) < 2 {
		t.Fatalf("unexpected schedule shape: %v", a)
	}
}

// TestAdaptiveShrinksUnderBufferPressure: with a GlobalBuffer far too
// small for the static split's chunks, every static speculation
// overflow-rolls-back, while an adaptive policy with a matching pressure
// threshold shrinks chunks until they fit and recovers commits with far
// fewer rollbacks.
//
// The schedule is fixed so that both counts are the same on every run
// (static 0 commits / 63 rollbacks, adaptive 118 / 4). One speculative CPU:
// with more, the depth of each squashed chain depends on which workers the
// host schedules in time. No coarsening (MaxRollbackRate 1 is never
// exceeded): that response reads the live point counters, which include the
// one speculation still in flight or not, depending on how far it got in
// real time. What is left — buffer peaks and the non-speculative thread's
// virtual clock — is a function of the schedule alone.
func TestAdaptiveShrinksUnderBufferPressure(t *testing.T) {
	const n = 4096
	run := func(ck mutls.Chunker) (mutls.Cost, int, int, int64) {
		rt, err := mutls.New(mutls.Options{
			CPUs: 1, HeapBytes: 1 << 20,
			Buffering: mutls.Buffering{LogWords: 5, OverflowCap: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var sum int64
		tn, runErr := rt.Run(func(t0 *mutls.Thread) {
			arr := t0.Alloc(8 * n)
			opts := mutls.ForOptions{Model: mutls.InOrder, Chunker: ck}
			mutls.ForRange(t0, n, opts, func(c *mutls.Thread, lo, hi int) {
				for i := lo; i < hi; i++ {
					c.Tick(64)
					c.StoreInt64(arr+mutls.Addr(8*i), int64(i)*7+3)
				}
			})
			for i := 0; i < n; i++ {
				sum += t0.LoadInt64(arr + mutls.Addr(8*i))
			}
			t0.Free(arr)
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		s := rt.Stats()
		return tn, s.Commits, s.Rollbacks, sum
	}
	adaptive := mutls.AdaptivePolicy{PressureWords: 20, Window: 2, MaxRollbackRate: 1}
	_, staticCommits, staticRollbacks, staticSum := run(nil)
	_, adaptCommits, adaptRollbacks, adaptSum := run(adaptive)
	if staticSum != wantFill(n) || adaptSum != wantFill(n) {
		t.Fatalf("checksums diverged: static %d adaptive %d want %d", staticSum, adaptSum, wantFill(n))
	}
	// The static 64-index chunks write 64 words into 32-word maps with 8
	// overflow slots: every speculation must overflow and roll back.
	if staticCommits != 0 || staticRollbacks == 0 {
		t.Fatalf("static split under tiny buffer: commits=%d rollbacks=%d, want a pure rollback storm",
			staticCommits, staticRollbacks)
	}
	if adaptCommits == 0 {
		t.Fatal("adaptive policy never shrank into committable chunks")
	}
	if adaptRollbacks >= staticRollbacks {
		t.Fatalf("adaptive rollbacks (%d) not below the static storm's (%d)", adaptRollbacks, staticRollbacks)
	}
}

// TestReduceWithAdaptiveChunks: grouped continuations preserve the fold
// result across predictors and rollbacks.
func TestReduceWithAdaptiveChunks(t *testing.T) {
	const n, chunks = 1 << 12, 64
	want := int64(7 * n)
	for _, prob := range []float64{0, 1.0} {
		rt := newRuntime(t, 4, func(o *mutls.Options) {
			o.RollbackProb = prob
			o.Seed = 3
		})
		opts := mutls.ReduceOptions{Predictor: mutls.Stride, Chunks: mutls.AdaptivePolicy{Start: 4}}
		if got := reduceSum(rt, n, chunks, opts); got != want {
			t.Fatalf("prob=%v: Reduce = %d, want %d", prob, got, want)
		}
		rt.Close()
	}
}

// --- Live point counters (the mid-run feedback surface) ---

// TestPointCountersMidRun: the counters are readable from the
// non-speculative thread while the run is still in progress, reflect the
// loop that just joined, and clear with ResetStats.
func TestPointCountersMidRun(t *testing.T) {
	rt := newRuntime(t, 4, nil)
	var mid mutls.PointCounters
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * 4096)
		mutls.ForRange(t0, 4096, mutls.ForOptions{Model: mutls.InOrder}, func(c *mutls.Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Tick(4)
				c.StoreInt64(arr+mutls.Addr(8*i), 1)
			}
		})
		mid = rt.PointCounters(0) // mid-run: the Run has not returned yet
		t0.Free(arr)
	})
	if mid.Commits == 0 {
		t.Fatal("no commits visible mid-run")
	}
	if mid.CommitLatency <= 0 || mid.MeanCommitLatency() <= 0 {
		t.Fatalf("commit latency not tracked: %+v", mid)
	}
	if mid.WriteSetPeak == 0 {
		t.Fatalf("write-set peak not tracked: %+v", mid)
	}
	if got := rt.PointCounters(0); got.Commits < mid.Commits {
		t.Fatalf("counters went backwards: %+v then %+v", mid, got)
	}
	if out := rt.PointCounters(-1); out != (mutls.PointCounters{}) {
		t.Fatalf("out-of-range point returned %+v", out)
	}
	rt.ResetStats()
	if got := rt.PointCounters(0); got.Executions() != 0 {
		t.Fatalf("ResetStats left point counters %+v", got)
	}
}
