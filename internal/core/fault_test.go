package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSpecPanicBecomesRollbackFault: a panic inside a speculative region
// is a misspeculation, not a crash — the join reports RollbackFault, the
// parent re-executes in order, and the fault lands in the statistics.
func TestSpecPanicBecomesRollbackFault(t *testing.T) {
	rt := newRT(t, 2, nil)
	var got int64
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed with idle CPUs")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 { panic("spec boom") })
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack {
			t.Fatalf("join status %v, want rolled back", res.Status)
		}
		if res.Reason != RollbackFault {
			t.Fatalf("rollback reason %v, want fault", res.Reason)
		}
		// The driver contract after any rollback: re-execute in order.
		t0.StoreInt64(arr, 42)
		got = t0.LoadInt64(arr)
		t0.Free(arr)
	})
	if got != 42 {
		t.Fatalf("in-order re-execution read %d", got)
	}
	f := rt.Stats().Faults
	if f.SpecPanics != 1 {
		t.Errorf("SpecPanics = %d, want 1", f.SpecPanics)
	}
	if len(f.Records) != 1 || !strings.Contains(f.Records[0].Value, "spec boom") {
		t.Errorf("fault records %+v missing the panic value", f.Records)
	}
	if len(f.Records) == 1 && f.Records[0].Stack == "" {
		t.Error("fault record has no stack capture")
	}
}

// TestKernelPanicContained: a panic on the non-speculative thread surfaces
// as a typed *KernelPanic from RunCtx, and the runtime drains and stays
// reusable afterwards.
func TestKernelPanicContained(t *testing.T) {
	rt := newRT(t, 2, nil)
	_, err := rt.RunCtx(context.Background(), func(t0 *Thread) { panic("kernel boom") })
	var kp *KernelPanic
	if !errors.As(err, &kp) {
		t.Fatalf("RunCtx error %v (%T), want *KernelPanic", err, err)
	}
	if !strings.Contains(kp.Error(), "kernel boom") {
		t.Errorf("KernelPanic message %q missing the panic value", kp.Error())
	}
	if len(kp.Stack) == 0 {
		t.Error("KernelPanic has no stack capture")
	}
	if !rt.Quiescent() {
		t.Fatal("runtime not quiescent after a contained kernel panic")
	}
	if n := rt.Stats().Faults.KernelPanics; n != 1 {
		t.Errorf("KernelPanics = %d, want 1", n)
	}
	var got int64
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(8)
		t0.StoreInt64(p, 7)
		got = t0.LoadInt64(p)
		t0.Free(p)
	})
	if got != 7 {
		t.Fatalf("runtime unusable after contained panic: got %d", got)
	}
}

// TestPanicThroughOpenForkWindow: a kernel panic between Fork and Start
// unwinds through an open fork window; the claimed CPU must be abandoned
// (or the drain hangs) and remain usable for the next run.
func TestPanicThroughOpenForkWindow(t *testing.T) {
	for _, model := range []Model{InOrder, Mixed, MixedLinear} {
		rt := newRT(t, 2, nil)
		_, err := rt.RunCtx(context.Background(), func(t0 *Thread) {
			ranks := make([]Rank, 1)
			if h := t0.Fork(ranks, 0, model); h == nil {
				t.Fatal("fork failed with idle CPUs")
			}
			panic("between fork and start")
		})
		var kp *KernelPanic
		if !errors.As(err, &kp) {
			t.Fatalf("%v: error %v, want *KernelPanic", model, err)
		}
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 1)
			h := t0.Fork(ranks, 0, model)
			if h == nil {
				t.Fatalf("%v: CPU not reclaimed after abandoned fork", model)
			}
			h.Start(func(c *Thread) uint32 { return 0 })
			if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
				t.Fatalf("%v: join after abandoned fork: %v", model, res.Status)
			}
		})
		rt.Close()
	}
}

// TestRepeatedFaultsDisablePoint: a fork point that faults
// faultDisableThreshold times is refused from then on — a deterministically
// faulting kernel degrades to (correct) sequential execution instead of a
// squash loop.
func TestRepeatedFaultsDisablePoint(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		for i := 0; i < faultDisableThreshold; i++ {
			h := t0.Fork(ranks, 0, Mixed)
			if h == nil {
				t.Fatalf("fork %d refused before the fault threshold", i)
			}
			h.Start(func(c *Thread) uint32 { panic("always faults") })
			if res := t0.Join(ranks, 0); res.Status != JoinRolledBack || res.Reason != RollbackFault {
				t.Fatalf("iteration %d: %v/%v", i, res.Status, res.Reason)
			}
		}
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			t.Fatal("fork still allowed after the fault threshold")
		}
	})
	if n := rt.points[0].faults.Load(); n != faultDisableThreshold {
		t.Errorf("PointFaults(0) = %d, want %d", n, faultDisableThreshold)
	}
	if _, _, disabled := rt.PointProfile(0); !disabled {
		t.Error("point not disabled after repeated faults")
	}
	if n := rt.Stats().Faults.SpecPanics; n != faultDisableThreshold {
		t.Errorf("SpecPanics = %d, want %d", n, faultDisableThreshold)
	}
}

// TestWatchdogKillsRunaway: a speculative region that outlives
// Options.SpecDeadline is squashed at its first poll past the deadline with
// RollbackDeadline and counted as a watchdog kill.
func TestWatchdogKillsRunaway(t *testing.T) {
	rt := newRT(t, 1, func(o *Options) { o.SpecDeadline = 2 * time.Millisecond })
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed with an idle CPU")
		}
		h.Start(func(c *Thread) uint32 {
			for {
				if c.CheckPoint() {
					return 0
				}
			}
		})
		// Let the runaway outlive its deadline before signalling the join.
		time.Sleep(50 * time.Millisecond)
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack {
			t.Fatalf("join status %v, want rolled back", res.Status)
		}
		if res.Reason != RollbackDeadline {
			t.Fatalf("rollback reason %v, want deadline", res.Reason)
		}
	})
	if k := rt.Stats().Faults.WatchdogKills; k == 0 {
		t.Error("watchdog kill not counted")
	}
}
