package core

import "testing"

// TestPointCountersTrackOutcomes: the per-point counters separate commits
// from rollbacks and sum the occupied intervals of both.
func TestPointCountersTrackOutcomes(t *testing.T) {
	rt := newRT(t, 2, func(o *Options) { o.RollbackProb = 1.0; o.Seed = 5 })
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8)
		for i := 0; i < 3; i++ {
			ranks := make([]Rank, 1)
			h := t0.Fork(ranks, 0, Mixed)
			if h == nil {
				t.Fatal("fork failed")
			}
			h.SetRegvarAddr(0, arr)
			h.Start(func(c *Thread) uint32 {
				c.Tick(10)
				c.StoreInt64(c.GetRegvarAddr(0), 1)
				return 0
			})
			if res := t0.Join(ranks, 0); res.Committed() {
				t.Fatal("RollbackProb=1 committed")
			}
		}
	})
	if c, r, _ := rt.PointProfile(0); c != 0 || r != 3 {
		t.Fatalf("profile %d commits / %d rollbacks, want 0 / 3", c, r)
	}
	if ps := rt.Stats().PerPoint[0]; ps.Rollbacks != 3 || ps.Runtime <= 0 {
		t.Fatalf("PerPoint[0] = %+v, want 3 rollbacks with their latency summed", ps)
	}
}

// TestSquashChildrenReclaims: squashing an abandoned child frees its CPU
// for a later fork and returns the in-order fork mantle to the squasher.
func TestSquashChildrenReclaims(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		mark := t0.ChildMark()
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, InOrder)
		if h == nil {
			t.Fatal("fork failed")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			c.StoreInt64(c.GetRegvarAddr(0), 99)
			return 0
		})
		// Abandon the child without joining it: squash instead.
		t0.SquashChildren(mark)
		if got := t0.ChildMark(); got != mark {
			t.Fatalf("children stack depth %d after squash, want %d", got, mark)
		}
		// The in-order mantle is back: a new in-order fork must succeed
		// once the squashed thread has drained its CPU.
		ranks[0] = 0
		var h2 *ForkHandle
		for h2 == nil {
			h2 = t0.Fork(ranks, 0, InOrder)
		}
		h2.SetRegvarAddr(0, arr)
		h2.Start(func(c *Thread) uint32 {
			c.StoreInt64(c.GetRegvarAddr(0)+8, 7)
			return 0
		})
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("post-squash join status %v (reason %v)", res.Status, res.Reason)
		}
		if got := t0.LoadInt64(arr + 8); got != 7 {
			t.Fatalf("post-squash speculation wrote %d, want 7", got)
		}
		// The squashed child's write must never have committed.
		if got := t0.LoadInt64(arr); got != 0 {
			t.Fatalf("squashed speculation committed %d", got)
		}
	})
}
