package mutls_test

import (
	"math"
	"testing"

	"repro/mutls"
)

// models4 is the full forking-model matrix (the Figure 10 trio plus the
// linear mixed baseline).
var models4 = []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed, mutls.MixedLinear}

// TestReduceColdStartFirstForkCommits is the regression test for the
// cold-predictor fork: with a nonzero init and a constant per-chunk delta,
// the warm-gated stride predictor must make the very first forked
// continuation commit (the old code predicted accumulator 0 for the first
// fork, which could only validate when init was 0) — and every later one,
// so the run has commits and not one rollback.
func TestReduceColdStartFirstForkCommits(t *testing.T) {
	const nChunks, init, delta = 16, int64(5), int64(3)
	rt := newRuntime(t, 4, nil)
	var got int64
	rt.Run(func(t0 *mutls.Thread) {
		got = mutls.Reduce(t0, nChunks, init, mutls.ReduceOptions{Predictor: mutls.Stride},
			func(c *mutls.Thread, idx int, acc int64) int64 {
				c.Tick(200)
				return acc + delta
			})
	})
	if want := init + nChunks*delta; got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
	if s := rt.Stats(); s.Commits == 0 || s.Rollbacks != 0 {
		t.Fatalf("%d commits, %d rollbacks; the cold-start fix must make every fork commit, the first included",
			s.Commits, s.Rollbacks)
	}
}

// TestReduceFeedbackExactlyOncePerGroup: the predictor is fed every chunk
// boundary's accumulator exactly once, on every GlobalBuffer backend. Under
// forced mispredictions (strictly growing per-chunk deltas defeat the
// stride predictor) the result stays sequential. And while forks are
// refused the boundaries are still observed: the first half of a
// constant-delta fold runs with no CPU to fork on, and once CPUs appear
// every fork must commit — a boundary the predictor missed leaves its last
// value stale, one it saw twice zeroes its stride, and either would roll
// the next fork back.
func TestReduceFeedbackExactlyOncePerGroup(t *testing.T) {
	const nChunks = 24
	delta := func(idx int) int64 { return int64(idx*idx + 1) }
	want := int64(7)
	for idx := 0; idx < nChunks; idx++ {
		want += delta(idx)
	}
	for _, backend := range mutls.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			rt := newRuntime(t, 4, func(o *mutls.Options) {
				o.Buffering = mutls.Buffering{Backend: backend}
			})
			opts := mutls.ReduceOptions{Predictor: mutls.Stride}
			var got int64
			rt.Run(func(t0 *mutls.Thread) {
				got = mutls.Reduce(t0, nChunks, 7, opts, func(c *mutls.Thread, idx int, acc int64) int64 {
					c.Tick(150)
					return acc + delta(idx)
				})
			})
			if got != want {
				t.Fatalf("Reduce = %d, want %d", got, want)
			}
			if s := rt.Stats(); s.Rollbacks == 0 {
				t.Fatal("growing deltas produced no mispredictions (predictor too strong or no forks)")
			}

			rt.ResetStats()
			rt.SetCPULimit(0)
			rt.Run(func(t0 *mutls.Thread) {
				got = mutls.Reduce(t0, nChunks, 7, opts, func(c *mutls.Thread, idx int, acc int64) int64 {
					if idx == nChunks/2 && !c.Speculative() {
						rt.SetCPULimit(4)
					}
					c.Tick(150)
					return acc + 3
				})
			})
			if got != 7+3*nChunks {
				t.Fatalf("Reduce with refused forks = %d, want %d", got, 7+3*nChunks)
			}
			if s := rt.Stats(); s.Commits == 0 || s.Rollbacks != 0 {
				t.Fatalf("after refused forks: %d commits, %d rollbacks, want commits and no rollback",
					s.Commits, s.Rollbacks)
			}
		})
	}
}

// reduceFloatSeq is the sequential reference fold.
func reduceFloatSeq(nChunks int, init float64, delta func(int) float64) float64 {
	acc := init
	for idx := 0; idx < nChunks; idx++ {
		acc += delta(idx)
	}
	return acc
}

// TestReduceFloat64MatchesSequential: the float reduction is bit-identical to the sequential fold under every model and backend, even
// when the deltas are irregular (every misprediction re-executes inline).
func TestReduceFloat64MatchesSequential(t *testing.T) {
	const nChunks, init = 32, 0.5
	delta := func(idx int) float64 { return float64(idx) * 0.375 }
	want := reduceFloatSeq(nChunks, init, delta)
	for _, model := range models4 {
		for _, backend := range mutls.Backends() {
			rt := newRuntime(t, 4, func(o *mutls.Options) {
				o.Buffering = mutls.Buffering{Backend: backend}
			})
			opts := mutls.ReduceOptions{Model: model, Predictor: mutls.Stride}
			var got float64
			rt.Run(func(t0 *mutls.Thread) {
				got = mutls.ReduceFloat64(t0, nChunks, init, opts, func(c *mutls.Thread, idx int, acc float64) float64 {
					c.Tick(100)
					return acc + delta(idx)
				})
			})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("model %v backend %s: ReduceFloat64 = %v, want bit-exact %v", model, backend, got, want)
			}
		}
	}
}

// TestReduceFloat64StrideCommits: a constant float delta is followed
// exactly by the float-arithmetic stride predictor, so continuations
// commit and the result stays bit-exact (nonzero init, per the cold-start
// fix).
func TestReduceFloat64StrideCommits(t *testing.T) {
	const nChunks, init = 32, 2.5
	rt := newRuntime(t, 4, nil)
	opts := mutls.ReduceOptions{Predictor: mutls.Stride}
	var got float64
	rt.Run(func(t0 *mutls.Thread) {
		got = mutls.ReduceFloat64(t0, nChunks, init, opts, func(c *mutls.Thread, idx int, acc float64) float64 {
			c.Tick(200)
			return acc + 0.25
		})
	})
	if want := init + nChunks*0.25; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ReduceFloat64 = %v, want %v", got, want)
	}
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("constant-delta float reduction committed nothing (%d rollbacks)", s.Rollbacks)
	}
}

// TestReduceFloat64ToleranceMode: per-chunk deltas with a jitter far below
// any float tolerance still defeat validation, which compares bits — every
// fork run from the jittered prediction rolls back, and the result is the
// bit-identical sequential fold.
func TestReduceFloat64ToleranceMode(t *testing.T) {
	const nChunks, init = 48, 1.0
	delta := func(idx int) float64 { return 1.0 + float64(idx%5)*1e-12 }
	want := reduceFloatSeq(nChunks, init, delta)
	body := func(c *mutls.Thread, idx int, acc float64) float64 {
		c.Tick(150)
		return acc + delta(idx)
	}

	rt := newRuntime(t, 4, nil)
	var got float64
	rt.Run(func(t0 *mutls.Thread) {
		got = mutls.ReduceFloat64(t0, nChunks, init, mutls.ReduceOptions{Predictor: mutls.Stride}, body)
	})
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ReduceFloat64 = %v, want bit-exact %v", got, want)
	}
	if s := rt.Stats(); s.Rollbacks == 0 {
		t.Fatal("jittered deltas should roll back bit-exact validations")
	}
}

// TestReduceFuncMonoids drives the word-generic reduction over two
// non-additive monoids: max (predictable once the running max plateaus —
// last-value commits) and a wrapping product (unpredictable — every fork
// rolls back, the result still matches the sequential fold).
func TestReduceFuncMonoids(t *testing.T) {
	const nChunks = 32
	maxVal := func(idx int) uint64 {
		if idx > 10 {
			idx = 10
		}
		return uint64(idx * 7)
	}
	wantMax := uint64(3)
	for idx := 0; idx < nChunks; idx++ {
		if v := maxVal(idx); v > wantMax {
			wantMax = v
		}
	}
	wantProd := uint64(1)
	for idx := 0; idx < nChunks; idx++ {
		wantProd *= 2*uint64(idx) + 3
	}

	for _, model := range models4 {
		rt := newRuntime(t, 4, nil)
		var gotMax, gotProd uint64
		rt.Run(func(t0 *mutls.Thread) {
			gotMax = mutls.ReduceFunc(t0, nChunks, 3, mutls.ReduceOptions{Model: model},
				func(c *mutls.Thread, idx int, acc uint64) uint64 {
					c.Tick(120)
					if v := maxVal(idx); v > acc {
						return v
					}
					return acc
				})
			gotProd = mutls.ReduceFunc(t0, nChunks, 1, mutls.ReduceOptions{Model: model},
				func(c *mutls.Thread, idx int, acc uint64) uint64 {
					c.Tick(120)
					return acc * (2*uint64(idx) + 3)
				})
		})
		if gotMax != wantMax {
			t.Fatalf("model %v: max monoid = %d, want %d", model, gotMax, wantMax)
		}
		if gotProd != wantProd {
			t.Fatalf("model %v: product monoid = %#x, want %#x", model, gotProd, wantProd)
		}
	}

	// The plateaued max under last-value prediction must actually commit.
	rt := newRuntime(t, 4, nil)
	rt.Run(func(t0 *mutls.Thread) {
		mutls.ReduceFunc(t0, nChunks, 3, mutls.ReduceOptions{},
			func(c *mutls.Thread, idx int, acc uint64) uint64 {
				c.Tick(200)
				if v := maxVal(idx); v > acc {
					return v
				}
				return acc
			})
	})
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("plateaued max committed nothing (%d rollbacks)", s.Rollbacks)
	}
}

// TestDriverRunsUseDistinctPoints: a fork point is a driver body. Two For
// calls with one body accumulate on one point; a different body gets the
// next id, and its executions never land in the first body's profile.
func TestDriverRunsUseDistinctPoints(t *testing.T) {
	const n, chunks = 2048, 16
	rt := newRuntime(t, 4, nil)
	executions := func(p int) int64 {
		c, r, _ := rt.PointProfile(p)
		return c + r
	}
	var first, second, other0, other1 int64
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * n)
		body := func(c *mutls.Thread, idx int) {
			for i := idx; i < n; i += chunks {
				c.Tick(4)
				c.StoreInt64(arr+mutls.Addr(8*i), int64(i))
			}
		}
		opts := mutls.ForOptions{Model: mutls.InOrder}
		mutls.For(t0, chunks, opts, body)
		first = executions(0)
		mutls.For(t0, chunks, opts, body)
		second = executions(0)
		if got := executions(1); got != 0 {
			t.Errorf("the second call of one body ran %d executions on point 1", got)
		}
		mutls.For(t0, chunks, opts, func(c *mutls.Thread, idx int) { body(c, chunks-1-idx) })
		other0, other1 = executions(0), executions(1)
		t0.Free(arr)
	})
	if first == 0 || second <= first {
		t.Fatalf("point 0 had %d executions after the body's first call and %d after its second; one body is one point", first, second)
	}
	if other0 != second || other1 == 0 {
		t.Fatalf("a different body left point 0 at %d -> %d executions and point 1 at %d; it must use its own point", second, other0, other1)
	}
}

// TestNestedDriversUseDistinctPoints: an outer ForRange whose inline
// (non-speculative) chunk drives a nested For. The nested loop's body has
// its own fork point, so both points show executions — and, per the driver
// contract, nested drivers are legal only on the non-speculative thread, so
// speculative chunks do the same work directly. The outer loop has two
// chunks: one speculation, leaving CPUs for the nested run's forks.
func TestNestedDriversUseDistinctPoints(t *testing.T) {
	const rows, cols = 24, 64
	rt := newRuntime(t, 4, nil)
	var sum int64
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * rows * cols)
		fill := func(c *mutls.Thread, r, i int) {
			c.Tick(3)
			c.StoreInt64(arr+mutls.Addr(8*(r*cols+i)), int64(r*cols+i))
		}
		outer := mutls.ForOptions{Model: mutls.InOrder, Policy: mutls.ChunkPolicy{MaxChunks: 2}}
		mutls.ForRange(t0, rows, outer, func(c *mutls.Thread, lo, hi int) {
			for r := lo; r < hi; r++ {
				if c.Speculative() {
					for i := 0; i < cols; i++ {
						fill(c, r, i)
					}
				} else {
					mutls.For(c, cols, mutls.ForOptions{Model: mutls.Mixed}, func(cc *mutls.Thread, i int) {
						fill(cc, r, i)
					})
				}
			}
		})
		for k := 0; k < rows*cols; k++ {
			sum += t0.LoadInt64(arr + mutls.Addr(8*k))
		}
		t0.Free(arr)
	})
	if want := int64(rows*cols) * int64(rows*cols-1) / 2; sum != want {
		t.Fatalf("nested loops sum = %d, want %d", sum, want)
	}
	if points := rt.Stats().PointsSorted(); len(points) < 2 {
		t.Fatalf("executions on points %v, want the outer and the nested runs on distinct points", points)
	}
}
