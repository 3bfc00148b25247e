package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gbuf"
	"repro/internal/mem"
)

// withPlan is a background context carrying plan.
func withPlan(plan *faultinject.Plan) context.Context {
	return faultinject.NewContext(context.Background(), plan)
}

// TestStoreSeamOverflowRollsBack: an overflow injected at the buffered
// store seam rolls the speculation back with RollbackOverflow, on every
// backend and on both write paths (word and range), and the in-order
// re-execution — direct, so it draws no decision — leaves the sequential
// result.
func TestStoreSeamOverflowRollsBack(t *testing.T) {
	want := []int64{3, 1, 4, 1, 5}
	for _, backend := range gbuf.Backends() {
		for _, bulk := range []bool{false, true} {
			plan := faultinject.NewPlan(1, []faultinject.Rule{
				{Site: faultinject.SiteStore, Kind: faultinject.KindOverflow, Prob: 1},
			})
			rt := newRT(t, 2, func(o *Options) { o.GBuf.Backend = backend })
			got := make([]int64, len(want))
			var res JoinResult
			_, err := rt.RunCtx(withPlan(plan), func(t0 *Thread) {
				arr := t0.Alloc(8 * len(want))
				fill := func(c *Thread) {
					if bulk {
						c.StoreInt64s(arr, want)
						return
					}
					for i, v := range want {
						c.StoreInt64(arr+mem.Addr(8*i), v)
					}
				}
				ranks := make([]Rank, 1)
				h := t0.Fork(ranks, 0, Mixed)
				if h == nil {
					t.Fatal("fork failed with idle CPUs")
				}
				h.Start(func(c *Thread) uint32 { fill(c); return 0 })
				res = t0.Join(ranks, 0)
				fill(t0)
				t0.LoadInt64s(arr, got)
			})
			if err != nil {
				t.Fatalf("%s bulk=%v: %v", backend, bulk, err)
			}
			if res.Status != JoinRolledBack || res.Reason != RollbackOverflow {
				t.Errorf("%s bulk=%v: join %v/%v, want rolled back for overflow", backend, bulk, res.Status, res.Reason)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s bulk=%v: memory %v, want %v", backend, bulk, got, want)
			}
			if n, k := plan.Seq(faultinject.SiteStore), plan.Injected(faultinject.SiteStore, faultinject.KindOverflow); n != 1 || k != 1 {
				t.Errorf("%s bulk=%v: %d store decisions and %d overflows, want 1 and 1", backend, bulk, n, k)
			}
		}
	}
}

// TestAllocSeamPanicIsAKernelPanic: a panic injected at the alloc seam
// fails the run with a *KernelPanic whose value names the seam, the runtime
// drains, and after Recycle the next run — its context carries no plan —
// is clean.
func TestAllocSeamPanicIsAKernelPanic(t *testing.T) {
	plan := faultinject.NewPlan(1, []faultinject.Rule{
		{Site: faultinject.SiteAlloc, Kind: faultinject.KindPanic, Prob: 1},
	})
	rt := newRT(t, 2, nil)
	_, err := rt.RunCtx(withPlan(plan), func(t0 *Thread) {
		t0.Alloc(8)
		t.Error("Alloc returned through an injected panic")
	})
	var kp *KernelPanic
	if !errors.As(err, &kp) {
		t.Fatalf("run error %v (%T), want *KernelPanic", err, err)
	}
	if ip, ok := kp.Value.(*faultinject.InjectedPanic); !ok || ip.Site != faultinject.SiteAlloc {
		t.Fatalf("kernel panic value %#v, want an injected panic at the alloc seam", kp.Value)
	}
	if !rt.Quiescent() {
		t.Fatal("runtime not quiescent after an injected alloc panic")
	}
	rt.Recycle()
	var got int64
	if _, err := rt.RunCtx(context.Background(), func(t0 *Thread) {
		p := t0.Alloc(8)
		t0.StoreInt64(p, 9)
		got = t0.LoadInt64(p)
	}); err != nil || got != 9 {
		t.Fatalf("run after Recycle: err %v, read %d, want nil and 9", err, got)
	}
	if s := rt.Stats(); s.Faults.KernelPanics != 0 {
		t.Errorf("KernelPanics = %d after Recycle and a clean run, want 0", s.Faults.KernelPanics)
	}
}

// TestRunWithoutPlanDrawsNothing: the seams draw decisions only from the
// plan the run's context carries. The same program draws at all six core
// seams under a plan and none under a context without one, and a
// runtime's earlier plan does not outlive its run.
func TestRunWithoutPlanDrawsNothing(t *testing.T) {
	sites := []faultinject.Site{faultinject.SitePoll, faultinject.SiteFork, faultinject.SiteJoin,
		faultinject.SiteStore, faultinject.SiteCommit, faultinject.SiteAlloc}
	var rules []faultinject.Rule
	for _, s := range sites {
		rules = append(rules, faultinject.Rule{Site: s, Kind: faultinject.KindDelay, Prob: 1})
	}
	plan := faultinject.NewPlan(1, rules)
	rt := newRT(t, 2, nil)
	program := func(t0 *Thread) {
		arr := t0.Alloc(8)
		ranks := make([]Rank, 1)
		if h := t0.Fork(ranks, 0, Mixed); h != nil {
			h.Start(func(c *Thread) uint32 {
				c.StoreInt64(arr, 1)
				c.CheckPoint()
				return 0
			})
		}
		if res := t0.Join(ranks, 0); !res.Committed() {
			t0.StoreInt64(arr, 1)
		}
		t0.Free(arr)
	}
	for _, ctx := range []context.Context{withPlan(plan), context.Background()} {
		before := make([]uint64, len(sites))
		for i, s := range sites {
			before[i] = plan.Seq(s)
		}
		if _, err := rt.RunCtx(ctx, program); err != nil {
			t.Fatal(err)
		}
		for i, s := range sites {
			drew := plan.Seq(s) > before[i]
			if carries := faultinject.From(ctx) != nil; drew != carries {
				t.Errorf("%v seam: drew a decision = %v in a run whose context carries a plan = %v", s, drew, carries)
			}
		}
	}
}
