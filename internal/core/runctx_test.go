package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
)

// TestCloseIdempotent: Close must be callable any number of times — the
// runtime pool drains and closes runtimes on shutdown paths that can race
// with deferred Closes in callers.
func TestCloseIdempotent(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Close()
	rt.Close()
	rt.Close()
}

// TestRunAfterCloseTypedError: a run attempted on a closed runtime must
// fail fast with ErrClosed — not hang on dead workers, not panic.
func TestRunAfterCloseTypedError(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Close()
	ran := false
	cost, err := rt.RunCtx(context.Background(), func(t *Thread) { ran = true })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunCtx on closed runtime: err = %v, want ErrClosed", err)
	}
	if ran || cost != 0 {
		t.Fatalf("RunCtx on closed runtime executed fn (ran=%v cost=%d)", ran, cost)
	}
}

// TestRunCtxPreCancelled: an already-expired context never starts the run.
func TestRunCtxPreCancelled(t *testing.T) {
	rt := newRT(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := rt.RunCtx(ctx, func(t *Thread) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled RunCtx executed fn")
	}
}

// TestRunCtxCancelMidRun: cancelling the context mid-run unwinds the
// non-speculative thread at its very next CancelPoint, returns the
// context's error, and leaves the runtime reusable.
func TestRunCtxCancelMidRun(t *testing.T) {
	rt := newRT(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	iters := 0
	_, err := rt.RunCtx(ctx, func(t *Thread) {
		for i := 0; i < 1<<30; i++ {
			if i == 3 {
				cancel()
			}
			t.CancelPoint()
			iters++
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if iters != 3 {
		t.Fatalf("run unwound after %d iterations, want 3: at the first poll after the cancel", iters)
	}
	// The runtime drained and is reusable.
	if _, err := rt.RunCtx(context.Background(), func(t *Thread) {}); err != nil {
		t.Fatalf("runtime unusable after cancelled run: %v", err)
	}
}

// TestCtxCancelUnwindsAtTheNextPoll: a context cancelled before the run's
// first Fork or poll is seen by both — the Fork refuses and the first
// CancelPoint unwinds.
func TestCtxCancelUnwindsAtTheNextPoll(t *testing.T) {
	rt := newRT(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	polls, forked := 0, false
	_, err := rt.RunCtx(ctx, func(t0 *Thread) {
		cancel()
		ranks := make([]Rank, 1)
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			forked = true
			h.Start(func(c *Thread) uint32 { return 0 })
			t0.Join(ranks, 0)
		}
		for polls < 1000 {
			polls++
			t0.CancelPoint()
		}
	})
	if !errors.Is(err, context.Canceled) || polls != 1 || forked {
		t.Fatalf("err=%v polls=%d forked=%v, want context.Canceled at the first poll and no fork", err, polls, forked)
	}
}

// TestNoGoroutineBesidesTheWorkers: a runtime runs one goroutine per
// virtual CPU and nothing else — not for SpecDeadline, and not for a run
// under a context that can be cancelled. The counts are upper bounds: a
// worker of an earlier test's closed runtime may still be exiting, which
// only lowers them.
func TestNoGoroutineBesidesTheWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := newRT(t, 2, func(o *Options) { o.SpecDeadline = time.Second })
	if n := runtime.NumGoroutine() - before; n > 2 {
		t.Fatalf("NewRuntime started %d goroutines, want its 2 workers only", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before = runtime.NumGoroutine()
	during := 0
	if _, err := rt.RunCtx(ctx, func(*Thread) { during = runtime.NumGoroutine() }); err != nil {
		t.Fatal(err)
	}
	if n := during - before; n > 0 {
		t.Fatalf("RunCtx under a cancellable context started %d goroutines", n)
	}
}

// TestCancelRunRefusesForks: after CancelRun, Fork refuses — the run
// degrades to sequential execution until a CancelPoint unwinds it — and a
// run unwound without a context reports ErrCancelled.
func TestCancelRunRefusesForks(t *testing.T) {
	rt := newRT(t, 2, nil)
	_, err := rt.RunCtx(context.Background(), func(t0 *Thread) {
		ranks := make([]Rank, 1)
		if h := t0.Fork(ranks, 0, Mixed); h == nil {
			t.Fatal("fork refused before cancellation")
		} else {
			h.Start(func(c *Thread) uint32 { return 0 })
			t0.Join(ranks, 0)
		}
		rt.CancelRun()
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			t.Fatal("fork granted after CancelRun")
		}
		t0.CancelPoint()
		t.Fatal("CancelPoint did not unwind after CancelRun")
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestSetCPULimit: the claim bound caps which virtual CPUs forks may use;
// 0 refuses every fork (sequential degradation), and restoring the limit
// restores speculation. This is the per-run admission lever of the
// multi-tenant pool.
func TestSetCPULimit(t *testing.T) {
	rt := newRT(t, 4, nil)
	forkOne := func(t0 *Thread) (Rank, bool) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			return 0, false
		}
		r := h.Rank()
		h.Start(func(c *Thread) uint32 { return 0 })
		t0.Join(ranks, 0)
		return r, true
	}

	rt.SetCPULimit(0)
	if got := rt.CPULimit(); got != 0 {
		t.Fatalf("CPULimit = %d, want 0", got)
	}
	rt.Run(func(t0 *Thread) {
		if _, ok := forkOne(t0); ok {
			t.Fatal("fork granted under CPU limit 0")
		}
	})

	rt.SetCPULimit(2)
	rt.Run(func(t0 *Thread) {
		for i := 0; i < 16; i++ {
			r, ok := forkOne(t0)
			if !ok {
				t.Fatal("fork refused under CPU limit 2")
			}
			if r > 2 {
				t.Fatalf("fork claimed rank %d beyond the limit 2", r)
			}
		}
	})

	// Clamped to NumCPUs; negative clamps to 0.
	rt.SetCPULimit(99)
	if got := rt.CPULimit(); got != 4 {
		t.Fatalf("CPULimit = %d, want clamp to 4", got)
	}
	rt.SetCPULimit(-1)
	if got := rt.CPULimit(); got != 0 {
		t.Fatalf("CPULimit = %d, want clamp to 0", got)
	}
}

// TestRunFreshCPUAvailability: every run restarts its clock at zero, so
// the previous run's freeAt stamps must not leak — a reused (pooled)
// runtime whose last run ended deep in virtual time would otherwise
// refuse every early fork of the next run.
func TestRunFreshCPUAvailability(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		t0.Tick(1_000_000) // end the run deep in virtual time
		ranks := make([]Rank, 1)
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			h.Start(func(c *Thread) uint32 { return 0 })
			t0.Join(ranks, 0)
		}
	})
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused at the start of a fresh run (stale freeAt)")
		}
		h.Start(func(c *Thread) uint32 { return 0 })
		t0.Join(ranks, 0)
	})
}

// TestRecycle: a recycled runtime starts its next tenant with a clean
// heap and statistics — without rebuilding buffers.
func TestRecycle(t *testing.T) {
	rt := newRT(t, 2, nil)
	var leaked mem.Addr
	rt.Run(func(t0 *Thread) {
		leaked = t0.Alloc(1 << 10) // deliberately never freed
		ranks := make([]Rank, 1)
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			h.Start(func(c *Thread) uint32 { return 0 })
			t0.Join(ranks, 0)
		}
	})
	if rt.space.Heap.InUse() == 0 {
		t.Fatal("test setup: leak did not register")
	}
	rt.Recycle()
	if got := rt.space.Heap.InUse(); got != 0 {
		t.Fatalf("heap in use after Recycle: %d bytes", got)
	}
	if rt.space.Registry.Contains(leaked, 1) {
		t.Fatal("leaked allocation still registered after Recycle")
	}
	if s := rt.Stats(); s.Executions != 0 || s.PointsExhausted != 0 {
		t.Fatalf("stats survived Recycle: %+v", s)
	}
	// And the runtime still runs.
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(64)
		t0.StoreInt64(p, 7)
		if got := t0.LoadInt64(p); got != 7 {
			t.Fatalf("recycled heap readback = %d", got)
		}
		t0.Free(p)
	})
}
