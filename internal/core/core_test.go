package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// newRT builds a small runtime for tests. Cleanup closes it. A test (not a
// benchmark) that builds one is armed with watchdog, so a lost wakeup or a
// lost child fails it by name after hangAfter.
func newRT(t testing.TB, cpus int, tweak func(*Options)) *Runtime {
	t.Helper()
	o := Options{
		NumCPUs: cpus,
		Timing:  vclock.Virtual,
		Space: mem.SpaceConfig{
			StaticBytes: 1 << 12,
			HeapBytes:   1 << 18,
			StackBytes:  1 << 12,
		},
		GBuf: gbuf.Config{LogWords: 12, OverflowCap: 16},
	}
	if tweak != nil {
		tweak(&o)
	}
	rt, err := NewRuntime(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if tt, ok := t.(*testing.T); ok {
		watchdog(tt, rt)
	}
	return rt
}

// Run is RunCtx under context.Background for the suite's bare call sites.
// It panics with the run's error, so a kernel panic or a run on a closed
// runtime still fails the calling test.
func (rt *Runtime) Run(fn func(t *Thread)) vclock.Cost {
	c, err := rt.RunCtx(context.Background(), fn)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Options{NumCPUs: -1}); err == nil {
		t.Error("negative CPUs accepted")
	}
	if _, err := NewRuntime(Options{NumCPUs: 2, RollbackProb: 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := NewRuntime(Options{NumCPUs: 2, RollbackProb: -0.1}); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestRunWithoutSpeculation(t *testing.T) {
	rt := newRT(t, 2, nil)
	var got int64
	tn := rt.Run(func(t0 *Thread) {
		p := t0.Alloc(8)
		t0.StoreInt64(p, 41)
		got = t0.LoadInt64(p) + 1
		t0.Free(p)
	})
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if tn <= 0 {
		t.Fatalf("runtime %d not positive (accesses must cost time)", tn)
	}
}

func TestForkJoinCommit(t *testing.T) {
	rt := newRT(t, 2, nil)
	var s1, s2 int64
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed with idle CPUs")
		}
		if ranks[0] == 0 {
			t.Fatal("ranks entry not set")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p+8, 42) // S2: the speculative region
			return 0
		})
		t0.StoreInt64(arr, 7) // S1: the parent's own work
		res := t0.Join(ranks, 0)
		if res.Status != JoinCommitted {
			t.Fatalf("join status %v (reason %v)", res.Status, res.Reason)
		}
		if ranks[0] != 0 {
			t.Fatal("ranks entry not cleared by join")
		}
		s1 = t0.LoadInt64(arr)
		s2 = t0.LoadInt64(arr + 8)
	})
	if s1 != 7 || s2 != 42 {
		t.Fatalf("memory after commit: %d, %d", s1, s2)
	}
}

func TestJoinNotForked(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 2)
		if res := t0.Join(ranks, 1); res.Status != JoinNotForked {
			t.Fatalf("join on empty point: %v", res.Status)
		}
	})
}

func TestForkRefusedWhenPointBusy(t *testing.T) {
	rt := newRT(t, 4, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("first fork failed")
		}
		h.Start(func(c *Thread) uint32 { return 0 })
		// "At most one thread can be speculated on at each fork/join point
		// id" (§IV-D).
		if h2 := t0.Fork(ranks, 0, Mixed); h2 != nil {
			t.Fatal("second fork on busy point succeeded")
		}
		t0.Join(ranks, 0)
	})
}

func TestForkRefusedWhenNoIdleCPU(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 2)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("first fork failed")
		}
		block := make(chan struct{})
		h.Start(func(c *Thread) uint32 {
			<-block
			return 0
		})
		if h2 := t0.Fork(ranks, 1, Mixed); h2 != nil {
			t.Fatal("fork succeeded with zero idle CPUs")
		}
		close(block)
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("join: %v", res.Status)
		}
	})
}

func TestReadConflictRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		t0.StoreInt64(arr, 1)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		readDone := make(chan struct{})
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			v := c.LoadInt64(p) // speculative read...
			close(readDone)
			c.StoreInt64(p+8, v*10)
			return 0
		})
		<-readDone
		t0.StoreInt64(arr, 99) // ...then a non-speculative write: conflict
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack {
			t.Fatalf("join status %v, want rollback", res.Status)
		}
		if res.Reason != RollbackValidation {
			t.Fatalf("reason %v, want validation", res.Reason)
		}
		// The speculative write must not have leaked.
		if got := t0.LoadInt64(arr + 8); got != 0 {
			t.Fatalf("rolled-back write leaked: %d", got)
		}
	})
	s := rt.Stats()
	if s.Rollbacks != 1 || s.Commits != 0 {
		t.Fatalf("stats commits=%d rollbacks=%d", s.Commits, s.Rollbacks)
	}
}

func TestNoConflictWhenDisjoint(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(32)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p+16, c.LoadInt64(p+24)+5)
			return 0
		})
		t0.StoreInt64(arr, 1) // different words: no conflict
		t0.StoreInt64(arr+8, 2)
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("disjoint access rolled back: %v", res.Reason)
		}
		if got := t0.LoadInt64(arr + 16); got != 5 {
			t.Fatalf("committed value %d", got)
		}
	})
}

func TestLocalsValidationFailureRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarInt64(0, 10) // predict x = 10 at the join point
		h.Start(func(c *Thread) uint32 {
			_ = c.GetRegvarInt64(0)
			return 0
		})
		// Parent arrives at the join with x = 11: misprediction.
		t0.ValidateRegvarInt64(ranks, 0, 0, 11)
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackLocals {
			t.Fatalf("status %v reason %v", res.Status, res.Reason)
		}
	})
}

func TestLocalsValidationSuccessCommits(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarInt64(0, 10)
		h.SetRegvarInt64(1, int64(math.Float64bits(2.5)))
		h.Start(func(c *Thread) uint32 {
			_ = c.GetRegvarInt64(0)
			return 0
		})
		t0.ValidateRegvarInt64(ranks, 0, 0, 10)
		t0.ValidateRegvarInt64(ranks, 0, 1, int64(math.Float64bits(2.5)))
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("correctly predicted locals rolled back: %v", res.Reason)
		}
	})
}

func TestValidateUnsavedSlotRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarInt64(0, 1)
		h.Start(func(c *Thread) uint32 { return 0 })
		// Validating a slot that was never predicted means the region used
		// an uninitialized value: must roll back.
		t0.ValidateRegvarInt64(ranks, 0, 3, 7)
		if res := t0.Join(ranks, 0); res.Status != JoinRolledBack {
			t.Fatalf("unpredicted slot committed: %v", res.Status)
		}
	})
}

func TestSavedLocalsRestoredAfterJoin(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarInt64(0, 5)
		h.Start(func(c *Thread) uint32 {
			x := c.GetRegvarInt64(0)
			c.SaveRegvarInt64(1, x*x)
			c.SaveRegvarInt64(2, int64(math.Float64bits(1.5)))
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("join failed: %v", res.Reason)
		}
		if got := res.RegvarInt64(1); got != 25 {
			t.Fatalf("restored local = %d", got)
		}
		if got := math.Float64frombits(uint64(res.RegvarInt64(2))); got != 1.5 {
			t.Fatalf("restored float = %v", got)
		}
		if !res.RegvarLive(1) || res.RegvarLive(3) {
			t.Fatal("liveness wrong")
		}
	})
}

func TestInjectedRollbackProbabilityOne(t *testing.T) {
	rt := newRT(t, 2, func(o *Options) { o.RollbackProb = 1.0 })
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			c.StoreInt64(c.GetRegvarAddr(0), 1)
			return 0
		})
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackInjected {
			t.Fatalf("status %v reason %v", res.Status, res.Reason)
		}
		if t0.LoadInt64(arr) != 0 {
			t.Fatal("injected rollback leaked a write")
		}
	})
}

func TestInvalidAddressRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			c.StoreInt64(mem.Addr(1<<40), 1) // far outside every registered range
			return 0
		})
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackInvalidAddress {
			t.Fatalf("status %v reason %v", res.Status, res.Reason)
		}
	})
}

func TestFreedMemoryAccessRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8)
		t0.Free(arr) // deregistered: speculative access must fault
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			_ = c.LoadInt64(c.GetRegvarAddr(0))
			return 0
		})
		if res := t0.Join(ranks, 0); res.Reason != RollbackInvalidAddress {
			t.Fatalf("reason %v", res.Reason)
		}
	})
}

func TestSpeculativeAllocRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			c.Alloc(8) // forbidden speculatively (§IV-G1)
			return 0
		})
		if res := t0.Join(ranks, 0); res.Reason != RollbackUnsafeOp {
			t.Fatalf("reason %v", res.Reason)
		}
	})
}

func TestExplicitRollback(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			c.Rollback()
			return 0
		})
		if res := t0.Join(ranks, 0); res.Status != JoinRolledBack {
			t.Fatalf("status %v", res.Status)
		}
	})
}

func TestDrainSquashesUnjoinedChildren(t *testing.T) {
	rt := newRT(t, 2, nil)
	var arr mem.Addr
	rt.Run(func(t0 *Thread) {
		arr = t0.Alloc(8)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			c.StoreInt64(c.GetRegvarAddr(0), 77)
			return 0
		})
		// Never joined: Run's epilogue must squash it.
	})
	// The unjoined speculative write must not be visible.
	final := rt.Space().Arena.ReadInt64(arr)
	if final != 0 {
		t.Fatalf("unjoined speculation committed: %d", final)
	}
	// And the CPU must be reusable afterwards.
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("CPU leaked by drain")
		}
		h.Start(func(c *Thread) uint32 { return 0 })
		if res := t0.Join(ranks, 0); !res.Committed() {
			t.Fatalf("post-drain join: %v", res.Status)
		}
	})
}

func TestStatsCollected(t *testing.T) {
	rt := newRT(t, 2, nil)
	ts := rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(64)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			sum := int64(0)
			for i := 0; i < 4; i++ {
				sum += c.LoadInt64(p + mem.Addr(32+8*i))
			}
			for i := 0; i < 4; i++ {
				c.StoreInt64(p+mem.Addr(8*i), int64(i)+sum)
			}
			c.Tick(100)
			return 0
		})
		t0.Tick(50)
		t0.Join(ranks, 0)
	})
	s := rt.Stats()
	if s.Executions != 1 || s.Commits != 1 {
		t.Fatalf("executions=%d commits=%d", s.Executions, s.Commits)
	}
	if s.NonSpecRuntime != ts {
		t.Fatalf("NonSpecRuntime %d != Run result %d", s.NonSpecRuntime, ts)
	}
	if s.SpecLedger[vclock.Work] == 0 {
		t.Fatal("speculative work not recorded")
	}
	if s.SpecLedger[vclock.Commit] == 0 || s.SpecLedger[vclock.Validation] == 0 {
		t.Fatal("validation/commit not charged")
	}
	if s.NonSpecLedger[vclock.Fork] == 0 || s.NonSpecLedger[vclock.Join] == 0 {
		t.Fatal("fork/join not charged on the critical path")
	}
	if s.Coverage() <= 0 {
		t.Fatal("coverage not positive")
	}
}

func TestResetStats(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 { return 0 })
		t0.Join(ranks, 0)
	})
	rt.ResetStats()
	if s := rt.Stats(); s.Executions != 0 {
		t.Fatal("stats survived reset")
	}
}

func TestVirtualTimeAdvancesThroughSpeculation(t *testing.T) {
	rt := newRT(t, 2, nil)
	tn := rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			c.Tick(10_000)
			return 0
		})
		t0.Tick(100) // parent much faster: must idle-wait for the child
		t0.Join(ranks, 0)
	})
	if tn < 10_000 {
		t.Fatalf("parent finished at %d, before the child's 10k work", tn)
	}
	s := rt.Stats()
	if s.NonSpecLedger[vclock.Idle] == 0 {
		t.Fatal("parent idle time not booked")
	}
}

func TestPerPointProfile(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 3)
		h := t0.Fork(ranks, 2, Mixed)
		h.Start(func(c *Thread) uint32 { return 0 })
		t0.Join(ranks, 2)
	})
	c, r, dis := rt.PointProfile(2)
	if c != 1 || r != 0 || dis {
		t.Fatalf("profile %d/%d/%v", c, r, dis)
	}
	if c, _, _ := rt.PointProfile(63); c != 0 {
		t.Fatal("unused point has counts")
	}
	if c, _, _ := rt.PointProfile(-1); c != 0 {
		t.Fatal("negative point not guarded")
	}
}

func TestModelStrings(t *testing.T) {
	for m, want := range map[Model]string{
		InOrder: "inorder", OutOfOrder: "outoforder", Mixed: "mixed", MixedLinear: "mixedlinear",
	} {
		if m.String() != want {
			t.Errorf("%v != %s", m, want)
		}
		back, err := ParseModel(want)
		if err != nil || back != m {
			t.Errorf("ParseModel(%s) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("bogus model parsed")
	}
	if JoinCommitted.String() != "committed" || JoinNotForked.String() != "not-forked" {
		t.Error("join status names")
	}
	if RollbackValidation.String() != "validation" {
		t.Error("reason names")
	}
}
