package mutls_test

import (
	"testing"

	"repro/mutls"
)

// --- ForOptions.PollEvery: checkpoint polling inside speculated chunks ---

// TestPollEveryPreservesSemantics: polling (and the early-stop/inline-
// completion path it enables) may change who executes which suffix of a
// chunk, never the result — across models, CPU counts and forced
// rollbacks (squashed threads now die at the poll instead of draining).
func TestPollEveryPreservesSemantics(t *testing.T) {
	const n = 2048
	for _, model := range []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{1, 4} {
				for _, prob := range []float64{0, 0.4} {
					rt := newRuntime(t, cpus, func(o *mutls.Options) {
						o.RollbackProb = prob
						o.Seed = 7
					})
					opts := mutls.ForOptions{Model: model, PollEvery: 1}
					if got := fillSum(rt, n, opts); got != wantFill(n) {
						t.Fatalf("cpus=%d prob=%v: sum %d, want %d", cpus, prob, got, wantFill(n))
					}
					rt.Close()
				}
			}
		})
	}
}

// TestPollEveryStopsParkedThreads engineers openaddr hash-conflict parks
// (two writes 2^LogWords words apart share a slot) in chunks large enough
// that a parked thread would otherwise drain many more indices: with
// PollEvery set, the run must still produce the sequential result while
// conflict parks occur.
func TestPollEveryStopsParkedThreads(t *testing.T) {
	const logWords = 5
	const n = 512
	rt, err := mutls.New(mutls.Options{
		CPUs: 4, HeapBytes: 1 << 20,
		Buffering: mutls.Buffering{Backend: "openaddr", LogWords: logWords, OverflowCap: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var sum int64
	rt.Run(func(t0 *mutls.Thread) {
		arr := t0.Alloc(8 * 2 * n)
		opts := mutls.ForOptions{
			Model:     mutls.InOrder,
			Policy:    mutls.ChunkPolicy{MaxChunks: 8},
			PollEvery: 4,
		}
		mutls.ForRange(t0, n, opts, func(c *mutls.Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Tick(16)
				// arr[i] and arr[i+n] collide in the 2^logWords-word map
				// whenever n is a multiple of the map size.
				c.StoreInt64(arr+mutls.Addr(8*i), int64(i)*3+1)
				c.StoreInt64(arr+mutls.Addr(8*(i+n)), int64(i)*5+2)
			}
		})
		for i := 0; i < n; i++ {
			sum += t0.LoadInt64(arr+mutls.Addr(8*i)) + t0.LoadInt64(arr+mutls.Addr(8*(i+n)))
		}
		t0.Free(arr)
	})
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*3 + 1 + int64(i)*5 + 2
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if rt.Stats().GBuf.Conflicts == 0 {
		t.Fatal("scenario produced no conflict parks; the early-stop path never ran")
	}
}
