package mutls_test

import (
	"sync"
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

// TestForRangeHugeIndexSpace: chunk bounds are plain ints computed from the
// sequence number, so an index space past 2^31 tiles exactly — [0, n) in
// 64 contiguous chunks under the default policy.
func TestForRangeHugeIndexSpace(t *testing.T) {
	const n = 1 << 33
	rt := newRuntime(t, 2, nil)
	var mu sync.Mutex
	hiOf := map[int]int{} // a chunk run twice (speculated, then inline) records once
	if _, err := rt.Run(func(t0 *mutls.Thread) {
		mutls.ForRange(t0, n, mutls.ForOptions{}, func(c *mutls.Thread, lo, hi int) {
			mu.Lock()
			hiOf[lo] = hi
			mu.Unlock()
		})
	}); err != nil {
		t.Fatal(err)
	}
	cover := 0
	for cover < n {
		hi, ok := hiOf[cover]
		if !ok || hi <= cover {
			t.Fatalf("no chunk starts at %d (chunks by start: %v)", cover, hiOf)
		}
		cover = hi
	}
	if cover != n || len(hiOf) != 64 {
		t.Fatalf("%d chunks cover [0,%d), want 64 covering [0,%d)", len(hiOf), cover, n)
	}
}

// --- Live point counters ---

// TestPointCountersMidRun: a point's counters are readable from the
// non-speculative thread while the run is still in progress, reflect the
// loop that just joined, and clear with ResetStats.
func TestPointCountersMidRun(t *testing.T) {
	rt := newRuntime(t, 4, nil)
	var mid int64
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * 4096)
		mutls.ForRange(t0, 4096, mutls.ForOptions{Model: mutls.InOrder}, func(c *mutls.Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Tick(4)
				c.StoreInt64(arr+mutls.Addr(8*i), 1)
			}
		})
		mid, _, _ = rt.PointProfile(0) // mid-run: the Run has not returned yet
		t0.Free(arr)
	})
	if mid == 0 {
		t.Fatal("no commits visible mid-run")
	}
	if got, _, _ := rt.PointProfile(0); got < mid {
		t.Fatalf("commits went backwards: %d then %d", mid, got)
	}
	if c, r, disabled := rt.PointProfile(-1); c != 0 || r != 0 || disabled {
		t.Fatalf("out-of-range point returned %d/%d/%v", c, r, disabled)
	}
	rt.ResetStats()
	if c, r, _ := rt.PointProfile(0); c+r != 0 {
		t.Fatalf("ResetStats left point counters %d/%d", c, r)
	}
}
