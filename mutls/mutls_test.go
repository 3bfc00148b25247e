package mutls_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/mutls"
)

// newRuntime builds a small test runtime; extra tweaks the options.
func newRuntime(t *testing.T, cpus int, extra func(*mutls.Options)) *mutls.Runtime {
	t.Helper()
	opts := mutls.Options{
		CPUs:      cpus,
		HeapBytes: 1 << 20,
	}
	if extra != nil {
		extra(&opts)
	}
	rt, err := mutls.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// models are the three forking models of the paper's Figure 10 comparison.
var models = []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed}

// --- For / ForRange ---

// forFill runs a chunked array fill under For and returns the checksum the
// non-speculative thread reads back after all joins.
func forFill(rt *mutls.Runtime, n, chunks int, model mutls.Model) int64 {
	var sum int64
	rt.Run(func(t *mutls.Thread) {
		arr := t.Alloc(8 * n)
		mutls.For(t, chunks, mutls.ForOptions{Model: model}, func(c *mutls.Thread, idx int) {
			for i := idx; i < n; i += chunks {
				v := int64(i)*7 + 3
				c.Tick(4)
				c.StoreInt64(arr+mutls.Addr(8*i), v)
			}
		})
		for i := 0; i < n; i++ {
			sum += t.LoadInt64(arr + mutls.Addr(8*i))
		}
		t.Free(arr)
	})
	return sum
}

func TestForMatchesSequentialAcrossModels(t *testing.T) {
	const n, chunks = 4096, 16
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*7 + 3
	}
	for _, model := range models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{0, 1, 4} {
				rt := newRuntime(t, cpus, nil)
				if got := forFill(rt, n, chunks, model); got != want {
					t.Fatalf("cpus=%d: For sum = %d, want %d", cpus, got, want)
				}
			}
		})
	}
}

func TestForSpeculatesAndCommits(t *testing.T) {
	rt := newRuntime(t, 8, nil)
	forFill(rt, 1<<14, 32, mutls.InOrder)
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("no committed speculations (%d rollbacks)", s.Rollbacks)
	}
}

func TestForUnderForcedRollbacks(t *testing.T) {
	const n, chunks = 4096, 16
	want := forFill(newRuntime(t, 4, nil), n, chunks, mutls.InOrder)
	for _, prob := range []float64{0.3, 1.0} {
		rt := newRuntime(t, 4, func(o *mutls.Options) {
			o.RollbackProb = prob
			o.Seed = 42
		})
		if got := forFill(rt, n, chunks, mutls.InOrder); got != want {
			t.Fatalf("prob=%v: For sum = %d, want %d", prob, got, want)
		}
		if prob == 1.0 {
			if s := rt.Stats(); s.Rollbacks == 0 {
				t.Fatal("RollbackProb=1 produced no rollbacks")
			}
		}
	}
}

func TestForRangeCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	policy := mutls.ChunkPolicy{MaxChunks: 8, MinPerChunk: 16}
	rt := newRuntime(t, 4, nil)
	var bad int
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * n)
		opts := mutls.ForOptions{Model: mutls.InOrder, Policy: policy}
		mutls.ForRange(t0, n, opts, func(c *mutls.Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.StoreInt64(arr+mutls.Addr(8*i), c.LoadInt64(arr+mutls.Addr(8*i))+1)
			}
		})
		for i := 0; i < n; i++ {
			if t0.LoadInt64(arr+mutls.Addr(8*i)) != 1 {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d indices not covered exactly once", bad)
	}
}

func TestChunkPolicy(t *testing.T) {
	cases := []struct {
		policy mutls.ChunkPolicy
		n      int
		want   int
	}{
		{mutls.ChunkPolicy{}, 1000, 64},
		{mutls.ChunkPolicy{}, 10, 10},
		{mutls.ChunkPolicy{MaxChunks: 8}, 1000, 8},
		{mutls.ChunkPolicy{MinPerChunk: 100}, 1000, 10},
		{mutls.ChunkPolicy{MinPerChunk: 2000}, 1000, 1},
	}
	for _, tc := range cases {
		if got := tc.policy.Chunks(tc.n); got != tc.want {
			t.Errorf("%+v.Chunks(%d) = %d, want %d", tc.policy, tc.n, got, tc.want)
		}
	}
	p := mutls.ChunkPolicy{}
	chunks := p.Chunks(1000)
	covered := 0
	for idx := 0; idx < chunks; idx++ {
		lo, hi := p.Bounds(1000, chunks, idx)
		covered += hi - lo
	}
	if covered != 1000 {
		t.Fatalf("Bounds covered %d of 1000 indices", covered)
	}
}

// --- Reduce ---

// reduceSum folds a constant-stride array; the stride predictor should lock
// on and let continuations commit.
func reduceSum(rt *mutls.Runtime, n, chunks int, opts mutls.ReduceOptions) int64 {
	per := n / chunks
	var total int64
	rt.Run(func(t *mutls.Thread) {
		arr := t.Alloc(8 * n)
		for i := 0; i < n; i++ {
			t.StoreInt64(arr+mutls.Addr(8*i), 7)
		}
		total = mutls.Reduce(t, chunks, 0, opts, func(c *mutls.Thread, idx int, acc int64) int64 {
			for i := idx * per; i < (idx+1)*per; i++ {
				acc += c.LoadInt64(arr + mutls.Addr(8*i))
			}
			return acc
		})
	})
	return total
}

func TestReduceMatchesSequentialAcrossModels(t *testing.T) {
	const n, chunks = 1 << 12, 16
	want := int64(7 * n)
	for _, model := range models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, pred := range []mutls.Predictor{mutls.LastValue, mutls.Stride} {
				rt := newRuntime(t, 4, nil)
				got := reduceSum(rt, n, chunks, mutls.ReduceOptions{Model: model, Predictor: pred})
				if got != want {
					t.Fatalf("pred=%v: Reduce = %d, want %d", pred, got, want)
				}
			}
		})
	}
}

func TestReducePredictionCommits(t *testing.T) {
	rt := newRuntime(t, 4, nil)
	reduceSum(rt, 1<<12, 16, mutls.ReduceOptions{Predictor: mutls.Stride})
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("stride-predictable reduction committed nothing (%d rollbacks)", s.Rollbacks)
	}
}

func TestReduceUnderForcedRollbacks(t *testing.T) {
	const n, chunks = 1 << 12, 16
	rt := newRuntime(t, 4, func(o *mutls.Options) {
		o.RollbackProb = 1.0
		o.Seed = 9
	})
	if got := reduceSum(rt, n, chunks, mutls.ReduceOptions{}); got != int64(7*n) {
		t.Fatalf("Reduce under forced rollbacks = %d, want %d", got, 7*n)
	}
}

// --- Tree ---

// treeSum speculates a binary recursion summing f(i) over [lo, hi): each
// internal node spawns its right half (reverse order) and recurses into the
// left, the tree-form shape of the paper's §II.
func treeSum(rt *mutls.Runtime, n, minLeaf int, model mutls.Model) int64 {
	tree := &mutls.Tree{Model: model}
	var node func(c *mutls.Thread, tt *mutls.TreeThread, lo, hi int, seq, span int64) int64
	node = func(c *mutls.Thread, tt *mutls.TreeThread, lo, hi int, seq, span int64) int64 {
		if hi-lo <= minLeaf {
			sum := int64(0)
			for i := lo; i < hi; i++ {
				c.Tick(2)
				sum += int64(i)*3 + 1
			}
			return sum
		}
		mid := (lo + hi) / 2
		half := span / 2
		task := mutls.Task{
			Seq: seq + half, Span: half,
			Args: [4]int64{int64(mid), int64(hi), 0, 0},
		}
		spawned := tt.Spawn(c, task)
		sum := node(c, tt, lo, mid, seq, half)
		if !spawned {
			sum += node(c, tt, mid, hi, seq+half, half)
		}
		return sum
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		tt.SetResultInt64(node(c, tt, int(task.Args[0]), int(task.Args[1]), task.Seq, task.Span))
	}

	var total int64
	rt.Run(func(t *mutls.Thread) {
		roots := tree.Collect(t, func(tt *mutls.TreeThread) {
			total = node(t, tt, 0, n, 0, int64(1)<<40)
		})
		tree.Drive(t, roots, func(_ mutls.Task, res mutls.TreeResult) {
			total += res.Int64()
		})
	})
	return total
}

func TestTreeMatchesSequentialAcrossModels(t *testing.T) {
	const n, minLeaf = 1 << 12, 1 << 7
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*3 + 1
	}
	for _, model := range models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{0, 1, 4, 8} {
				rt := newRuntime(t, cpus, nil)
				if got := treeSum(rt, n, minLeaf, model); got != want {
					t.Fatalf("cpus=%d: Tree sum = %d, want %d", cpus, got, want)
				}
			}
		})
	}
}

func TestTreeSpeculatesUnderMixedModel(t *testing.T) {
	rt := newRuntime(t, 8, nil)
	treeSum(rt, 1<<13, 1<<7, mutls.Mixed)
	if s := rt.Stats(); s.Commits == 0 {
		t.Fatalf("mixed-model tree committed nothing (%d rollbacks)", s.Rollbacks)
	}
}

func TestTreeUnderForcedRollbacks(t *testing.T) {
	const n, minLeaf = 1 << 12, 1 << 7
	want := treeSum(newRuntime(t, 4, nil), n, minLeaf, mutls.Mixed)
	for _, prob := range []float64{0.3, 1.0} {
		rt := newRuntime(t, 4, func(o *mutls.Options) {
			o.RollbackProb = prob
			o.Seed = 7
		})
		if got := treeSum(rt, n, minLeaf, mutls.Mixed); got != want {
			t.Fatalf("prob=%v: Tree sum = %d, want %d", prob, got, want)
		}
	}
}

// TestTreeFloatResult exercises the float64 result channel (the tsp shape).
func TestTreeFloatResult(t *testing.T) {
	tree := &mutls.Tree{Model: mutls.Mixed}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		c.Tick(100)
		tt.SetResultFloat64(float64(task.Args[0]) / 2)
	}
	rt := newRuntime(t, 4, nil)
	var got []float64
	rt.Run(func(t0 *mutls.Thread) {
		roots := tree.Collect(t0, func(tt *mutls.TreeThread) {
			for i := 4; i >= 1; i-- { // logically later subtrees first
				task := mutls.Task{Seq: int64(i), Span: 1, Args: [4]int64{int64(i)}}
				if !tt.Spawn(t0, task) {
					_, res := tree.Exec(t0, task)
					got = append(got, res.Float64())
				}
			}
		})
		tree.Drive(t0, roots, func(_ mutls.Task, res mutls.TreeResult) {
			got = append(got, res.Float64())
		})
	})
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if len(got) != 4 || sum != (1+2+3+4)/2.0 {
		t.Fatalf("float results %v, want the halves of 1..4", got)
	}
}

// TestTreeCancelUnwindsAtAJoin: a Tree driver polls CancelPoint at every
// join, so a run whose context ends after the subtrees were spawned unwinds
// before the first of them is joined.
func TestTreeCancelUnwindsAtAJoin(t *testing.T) {
	tree := &mutls.Tree{Model: mutls.Mixed}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		c.Tick(100)
		tt.SetResultInt64(task.Args[0])
	}
	rt := newRuntime(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	spawned, joined := 0, 0
	_, err := rt.RunCtx(ctx, func(t0 *mutls.Thread) {
		roots := tree.Collect(t0, func(tt *mutls.TreeThread) {
			for i := 2; i >= 1; i-- {
				if tt.Spawn(t0, mutls.Task{Seq: int64(i), Span: 1, Args: [4]int64{int64(i)}}) {
					spawned++
				}
			}
		})
		cancel()
		tree.Drive(t0, roots, func(mutls.Task, mutls.TreeResult) { joined++ })
	})
	if spawned != 2 {
		t.Fatalf("spawned %d subtrees, want 2", spawned)
	}
	if !errors.Is(err, context.Canceled) || joined != 0 {
		t.Fatalf("err=%v joined=%d, want context.Canceled before the first join", err, joined)
	}
}

// TestTreeForksAtItsOwnPoint: a Tree interns its Body like every driver.
// A For body whose speculative chunks panic gets its fork point disabled,
// and the verdict outlives the call; a Tree on the same runtime must still
// spawn its subtrees, and each driver's executions must show on its own
// point. (The Tree runs in a run of its own so that the squashed chunks'
// CPUs are idle again and only a fork point can refuse its spawns.)
func TestTreeForksAtItsOwnPoint(t *testing.T) {
	tree := &mutls.Tree{Model: mutls.Mixed}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		c.Tick(100)
		tt.SetResultInt64(task.Args[0])
	}
	rt := newRuntime(t, 4, nil)
	spawned := 0
	var total int64
	body := func(c *mutls.Thread, idx int) {
		if c.Speculative() {
			panic("speculative sabotage")
		}
		c.Tick(100)
	}
	rt.Run(func(t0 *mutls.Thread) {
		mutls.For(t0, 16, mutls.ForOptions{Model: mutls.InOrder}, body)
	})
	rt.Run(func(t0 *mutls.Thread) {
		roots := tree.Collect(t0, func(tt *mutls.TreeThread) {
			for i := 4; i >= 1; i-- { // logically later subtrees first
				task := mutls.Task{Seq: int64(i), Span: 1, Args: [4]int64{int64(i)}}
				if tt.Spawn(t0, task) {
					spawned++
				} else {
					_, res := tree.Exec(t0, task)
					total += res.Int64()
				}
			}
		})
		tree.Drive(t0, roots, func(_ mutls.Task, res mutls.TreeResult) { total += res.Int64() })
	})
	if total != 1+2+3+4 {
		t.Fatalf("tree sum = %d, want 10", total)
	}
	if spawned != 4 {
		t.Fatalf("Tree spawned %d of 4 subtrees after a For disabled its own point", spawned)
	}
	// Both bodies are interned already: PointFor returns their ids.
	forPoint := rt.PointFor(reflect.ValueOf(body).Pointer())
	treePoint := rt.PointFor(reflect.ValueOf(tree.Body).Pointer())
	if forPoint == treePoint {
		t.Fatalf("For and Tree bodies share fork point %d", forPoint)
	}
	pp := rt.Stats().PerPoint
	if f := pp[forPoint]; f.Commits != 0 || f.Rollbacks == 0 {
		t.Errorf("For's point %d: %+v, want rollbacks only", forPoint, f)
	}
	if tr := pp[treePoint]; tr.Commits != 4 || tr.Rollbacks != 0 {
		t.Errorf("Tree's point %d: %+v, want its 4 commits", treePoint, tr)
	}
}

// TestTreeSpawnCapacityBound: a region whose body wants to spawn more
// subtasks than fit in the saved locals must degrade to inline execution
// (Spawn returning false), not crash saving the task list.
func TestTreeSpawnCapacityBound(t *testing.T) {
	const fanout = 40 // far beyond the default LocalBuffer task capacity
	tree := &mutls.Tree{Model: mutls.Mixed}
	var leaves func(c *mutls.Thread, tt *mutls.TreeThread, lo int, n int, seq, span int64) int64
	leaves = func(c *mutls.Thread, tt *mutls.TreeThread, lo, n int, seq, span int64) int64 {
		if n == 1 {
			c.Tick(50)
			return int64(lo)
		}
		sum := int64(0)
		per := span / int64(n)
		// Wide flat fan-out: every child but the first is a spawn attempt.
		for i := n - 1; i >= 1; i-- {
			task := mutls.Task{Seq: seq + int64(i)*per, Span: per, Args: [4]int64{int64(lo + i), 1}}
			if !tt.Spawn(c, task) {
				sum += leaves(c, tt, lo+i, 1, seq+int64(i)*per, per)
			}
		}
		return sum + leaves(c, tt, lo, 1, seq, per)
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		tt.SetResultInt64(leaves(c, tt, int(task.Args[0]), int(task.Args[1]), task.Seq, task.Span))
	}

	// Default RegSlots (small saved-locals budget), plenty of CPUs.
	rt := newRuntime(t, 16, nil)
	var total int64
	rt.Run(func(t0 *mutls.Thread) {
		roots := tree.Collect(t0, func(tt *mutls.TreeThread) {
			// Root task fans out to `fanout` leaves inside ONE speculative
			// region when spawned; spawn it explicitly to force the region
			// path.
			task := mutls.Task{Seq: 0, Span: int64(1) << 40, Args: [4]int64{0, fanout}}
			if !tt.Spawn(t0, task) {
				_, res := tree.Exec(t0, task)
				total += res.Int64()
			}
		})
		tree.Drive(t0, roots, func(_ mutls.Task, res mutls.TreeResult) {
			total += res.Int64()
		})
	})
	want := int64(fanout * (fanout - 1) / 2)
	if total != want {
		t.Fatalf("capacity-bounded tree sum = %d, want %d", total, want)
	}
}

// --- Runtime façade ---

func TestOptionsDefaultsAndString(t *testing.T) {
	rt := newRuntime(t, 2, nil)
	if rt.NumCPUs() != 2 {
		t.Fatalf("NumCPUs = %d, want 2", rt.NumCPUs())
	}
	if _, err := mutls.New(mutls.Options{CPUs: -1}); err == nil {
		t.Fatal("negative CPUs accepted")
	}
	if _, err := mutls.ParseModel("mixed"); err != nil {
		t.Fatal(err)
	}
	if _, err := mutls.ParseModel("bogus"); err == nil {
		t.Fatal("bogus model accepted")
	}
}

// TestPartialBufferOptions: setting one field of a buffer pair must keep
// the default for the other, not zero it.
func TestPartialBufferOptions(t *testing.T) {
	rt, err := mutls.New(mutls.Options{CPUs: 2, RegSlots: 200})
	if err != nil {
		t.Fatalf("RegSlots-only options rejected: %v", err)
	}
	rt.Close()
	rt, err = mutls.New(mutls.Options{CPUs: 2, Buffering: mutls.Buffering{LogWords: 10}})
	if err != nil {
		t.Fatalf("LogWords-only options rejected: %v", err)
	}
	rt.Close()
}

// --- Buffering backends ---

// TestForAcrossBufferBackends: every registered GlobalBuffer backend
// preserves sequential semantics under the same For workload.
func TestForAcrossBufferBackends(t *testing.T) {
	const n, chunks = 4096, 16
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*7 + 3
	}
	for _, backend := range mutls.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			rt := newRuntime(t, 4, func(o *mutls.Options) {
				o.Buffering = mutls.Buffering{Backend: backend}
			})
			if got := forFill(rt, n, chunks, mutls.InOrder); got != want {
				t.Fatalf("sum = %d, want %d", got, want)
			}
			s := rt.Stats()
			if s.Commits == 0 {
				t.Fatal("no commits recorded")
			}
			if s.GBuf.WordsCommitted == 0 {
				t.Fatal("no committed words counted")
			}
			if s.WriteSetPeak == 0 {
				t.Fatal("no write-set high-water mark recorded")
			}
			rt.ResetStats()
			if s = rt.Stats(); s.GBuf.WordsCommitted != 0 || s.Commits != 0 {
				t.Fatalf("ResetStats left words_committed=%d commits=%d", s.GBuf.WordsCommitted, s.Commits)
			}
		})
	}
}

// TestBufferingValidation: invalid backend names and sizing fail New with
// an error instead of panicking or silently mis-sizing.
func TestBufferingValidation(t *testing.T) {
	cases := []mutls.Buffering{
		{Backend: "no-such-backend"},
		{Backend: "openaddr", LogWords: 40},
		{Backend: "openaddr", LogWords: -1},
		{Backend: "openaddr", LogWords: 10, OverflowCap: -2}, // -1 is gbuf.NoOverflow
	}
	for _, buf := range cases {
		if _, err := mutls.New(mutls.Options{CPUs: 2, Buffering: buf}); err == nil {
			t.Errorf("Buffering %+v accepted", buf)
		}
	}
}

func TestRealTiming(t *testing.T) {
	rt := newRuntime(t, 2, func(o *mutls.Options) { o.Timing = mutls.Real })
	const n, chunks = 2048, 8
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*7 + 3
	}
	if got := forFill(rt, n, chunks, mutls.InOrder); got != want {
		t.Fatalf("real-timing For sum = %d, want %d", got, want)
	}
}
