package core

import (
	"testing"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// TestCheckPointEarlyStopAndResume exercises the synchronization-table
// protocol: the parent joins while the region is mid-loop; the region
// notices at a check point, saves its live locals and returns a non-zero
// counter; the parent restores the locals and finishes the loop itself.
func TestCheckPointEarlyStopAndResume(t *testing.T) {
	rt := newRT(t, 2, nil)
	const n = 1000
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * n)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		progressed := make(chan struct{})
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			for i := 0; i < n; i++ {
				if i == 10 {
					close(progressed) // let the parent come join us
				}
				if c.CheckPoint() {
					// Stop: save the loop induction variable and where we
					// stopped (synchronization counter 1 = "inside loop").
					c.SaveRegvarInt64(1, int64(i))
					return 1
				}
				c.StoreInt64(p+mem.Addr(8*i), int64(i)*2)
			}
			c.SaveRegvarInt64(1, n)
			return 0
		})
		<-progressed
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("join failed: %v", res.Reason)
		}
		start := 0
		if res.Counter == 1 {
			// Synchronization table: resume the loop at the saved index.
			start = int(res.RegvarInt64(1))
			if start < 10 {
				t.Fatalf("stopped before the signal at i=%d", start)
			}
		} else if res.Counter != 0 {
			t.Fatalf("unexpected counter %d", res.Counter)
		} else {
			start = n
		}
		for i := start; i < n; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), int64(i)*2)
		}
		for i := 0; i < n; i++ {
			if got := t0.LoadInt64(arr + mem.Addr(8*i)); got != int64(i)*2 {
				t.Fatalf("a[%d] = %d", i, got)
			}
		}
	})
}

func TestBarrierPointStopsWithCounter(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			c.StoreInt64(c.GetRegvarAddr(0), 5)
			c.SaveRegvarInt64(1, 99)
			c.BarrierPoint(7)
			panic("unreachable: BarrierPoint returns only non-speculatively")
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 7 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
		if res.RegvarInt64(1) != 99 {
			t.Fatal("locals saved before barrier lost")
		}
		if t0.LoadInt64(arr) != 5 {
			t.Fatal("work before barrier not committed")
		}
	})
}

func TestBarrierIsNoopNonSpeculative(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		t0.BarrierPoint(3)   // must return
		t0.TerminatePoint(4) // must return
		t0.PtrIntCast(12345, 5)
		if t0.CheckPoint() {
			t.Fatal("non-speculative check point reported a stop")
		}
		t0.EnterPoint(1, 1)
		t0.ReturnPoint(2)
		if t0.FrameDepth() != 0 {
			t.Fatal("frame depth on non-speculative thread")
		}
	})
}

func TestTerminatePointBeforeUnsafeOp(t *testing.T) {
	// The paper terminates speculation at external/unsafe calls: the region
	// stops, the parent re-executes the unsafe part from the counter.
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(24)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p, 1) // safe prefix
			c.SaveRegvarAddr(1, p)
			c.TerminatePoint(2) // about to "allocate": unsafe
			panic("unreachable")
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 2 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
		// Parent performs the unsafe operation from synchronization block 2.
		p := res.RegvarAddr(1)
		q := t0.Alloc(8)
		t0.StoreAddr(p+8, q)
		if t0.LoadInt64(arr) != 1 {
			t.Fatal("prefix lost")
		}
	})
}

func TestPtrIntCastGlobalValueContinues(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.PtrIntCast(p, 3) // global address: no stop
			c.StoreInt64(p, 42)
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 0 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
		if t0.LoadInt64(arr) != 42 {
			t.Fatal("write lost")
		}
	})
}

func TestPtrIntCastSpeculativeStackValueStops(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			sp := c.StackAlloc(8) // speculative stack address
			c.PtrIntCast(sp, 4)   // not global: must stop at counter 4
			panic("unreachable")
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 4 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
	})
}

// stackvarCase runs the stack-variable protocol end to end. The parent
// StackAllocs a 16-byte home holding (3, 4) in its (non-speculative,
// global) stack and forks with SetStackvar and a prediction of 7 for
// regvar 0. The region multiplies its own copy (GetStackvar) by ten, saves
// it with SaveStackvar and saves a pointer into it with SaveRegvarAddr. The
// parent validates regvar 0 against actual, joins, and hands the join and
// the home to check.
func stackvarCase(t *testing.T, actual int64, check func(t0 *Thread, res JoinResult, home mem.Addr)) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		home := t0.StackAlloc(16)
		t0.StoreInt64(home, 3)
		t0.StoreInt64(home+8, 4)

		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetStackvar(0, home, 16)
		h.SetRegvarInt64(0, 7)
		h.Start(func(c *Thread) uint32 {
			_ = c.GetRegvarInt64(0)
			sp := c.GetStackvar(0) // child's own copy, on its own stack
			// Mutate through the speculative copy.
			c.StoreInt64(sp, c.LoadInt64(sp)*10)
			c.StoreInt64(sp+8, c.LoadInt64(sp+8)*10)
			c.SaveStackvar(0, sp, 16)
			// Save a pointer INTO the speculative copy: commit must map it
			// back to the parent's variable.
			c.SaveRegvarAddr(1, sp+8)
			return 0
		})
		t0.ValidateRegvarInt64(ranks, 0, 0, actual)
		check(t0, t0.Join(ranks, 0), home)
	})
}

func TestStackvarCommitAndPointerMapping(t *testing.T) {
	stackvarCase(t, 7, func(t0 *Thread, res JoinResult, home mem.Addr) {
		if !res.Committed() {
			t.Fatalf("join failed: %v", res.Reason)
		}
		// The stack variable's final bytes reached the parent copy.
		if a, b := t0.LoadInt64(home), t0.LoadInt64(home+8); a != 30 || b != 40 {
			t.Fatalf("committed stackvar = %d,%d", a, b)
		}
		// The pointer mapping mechanism translated the speculative stack
		// pointer to the parent's address (per-variable offset).
		if got := res.RegvarAddr(1); got != home+8 {
			t.Fatalf("mapped pointer = %d, want %d", got, home+8)
		}
	})
}

// TestStackvarRollbackLeavesHome: a mispredicted local rolls the region
// back, and the stack variable's home keeps the parent's bytes.
func TestStackvarRollbackLeavesHome(t *testing.T) {
	stackvarCase(t, 8, func(t0 *Thread, res JoinResult, home mem.Addr) {
		if res.Status != JoinRolledBack || res.Reason != RollbackLocals {
			t.Fatalf("join %v (%v), want rolled-back/locals", res.Status, res.Reason)
		}
		if a, b := t0.LoadInt64(home), t0.LoadInt64(home+8); a != 3 || b != 4 {
			t.Fatalf("rolled-back stackvar reached its home: %d,%d", a, b)
		}
	})
}

func TestStackPointerWithoutMappingStaysRaw(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		g := t0.Alloc(8)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, g)
		h.Start(func(c *Thread) uint32 {
			c.SaveRegvarAddr(1, c.GetRegvarAddr(0)) // global pointer: unmapped
			return 0
		})
		res := t0.Join(ranks, 0)
		if got := res.RegvarAddr(1); got != g {
			t.Fatalf("global pointer changed: %d != %d", got, g)
		}
	})
}

// TestStackFrameReconstruction follows §IV-H: the region descends into a
// nested call (EnterPoint), stops inside it, and the joining thread replays
// the recorded frames — re-entering each function at its recorded call
// site — to replicate the call chain and finish the work.
func TestStackFrameReconstruction(t *testing.T) {
	rt := newRT(t, 2, nil)
	const (
		funcInner    = 7
		callSiteLoop = 3
		counterInner = 9
	)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(32)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p, 1) // outer work
			// Descend into the nested "inner" function.
			c.EnterPoint(funcInner, callSiteLoop)
			c.SaveRegvarInt64(0, 123) // inner frame local
			c.SaveRegvarAddr(1, p)    // inner frame's copy of the pointer
			c.StoreInt64(p+8, 2)      // inner work
			// Stop inside the nested call.
			c.BarrierPoint(counterInner)
			panic("unreachable")
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("join failed: %v", res.Reason)
		}
		if res.Counter != counterInner {
			t.Fatalf("counter %d", res.Counter)
		}
		frames := res.Frames()
		if len(frames) != 1 {
			t.Fatalf("frames = %d, want 1 nested frame", len(frames))
		}
		f := frames[0]
		if f.FuncID != funcInner || f.CallSite != callSiteLoop {
			t.Fatalf("frame %+v", f)
		}
		// MUTLS_synchronize_entry equivalent: the parent replicates the
		// call chain — here simply checks the inner frame's saved local and
		// finishes the inner function's remaining work.
		if !f.RegLive[0] || f.Regs[0] != 123 {
			t.Fatalf("inner frame locals %v %v", f.Regs[0], f.RegLive[0])
		}
		if !f.RegLive[1] {
			t.Fatal("inner frame pointer not recorded")
		}
		p := mem.Addr(f.Regs[1])
		t0.StoreInt64(p+16, 3) // the work after the stop, done by the parent
		if a, b, c := t0.LoadInt64(arr), t0.LoadInt64(arr+8), t0.LoadInt64(arr+16); a != 1 || b != 2 || c != 3 {
			t.Fatalf("memory %d,%d,%d", a, b, c)
		}
	})
}

func TestReturnPointPopsFrames(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		depths := make(chan int, 3)
		h.Start(func(c *Thread) uint32 {
			depths <- c.FrameDepth()
			c.EnterPoint(1, 1)
			depths <- c.FrameDepth()
			c.ReturnPoint(5) // matched: pops, does not stop
			depths <- c.FrameDepth()
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 0 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
		if d := <-depths; d != 1 {
			t.Fatalf("entry depth %d", d)
		}
		if d := <-depths; d != 2 {
			t.Fatalf("nested depth %d", d)
		}
		if d := <-depths; d != 1 {
			t.Fatalf("post-return depth %d", d)
		}
	})
}

func TestReturnFromEntryFunctionStops(t *testing.T) {
	// §IV-H: speculative threads are restricted from returning from their
	// entry function; the return point turns into a stop.
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.Start(func(c *Thread) uint32 {
			c.ReturnPoint(11) // at entry depth: stop with counter 11
			panic("unreachable")
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() || res.Counter != 11 {
			t.Fatalf("status %v counter %d", res.Status, res.Counter)
		}
	})
}

func TestOverflowForcesStopAtCheckPoint(t *testing.T) {
	// A 2-word GlobalBuffer: the third distinct word collides and lands in
	// the overflow buffer; the thread must stop at its next check point and
	// wait to be joined (paper §IV-G2).
	rt := newRT(t, 2, func(o *Options) {
		o.GBuf = gbuf.Config{Backend: "openaddr", LogWords: 1, OverflowCap: 4}
	})
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * 64)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			i := int64(0)
			for ; i < 8; i++ {
				c.StoreInt64(p+mem.Addr(8*i), i+100)
				if c.CheckPoint() {
					c.SaveRegvarInt64(1, i+1)
					return 1
				}
			}
			c.SaveRegvarInt64(1, i)
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("overflowed thread rolled back: %v", res.Reason)
		}
		done := res.RegvarInt64(1)
		if res.Counter == 1 && done == 8 {
			t.Fatal("counter says early stop but loop completed")
		}
		// Parent finishes the rest.
		for i := done; i < 8; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), i+100)
		}
		for i := int64(0); i < 8; i++ {
			if got := t0.LoadInt64(arr + mem.Addr(8*i)); got != i+100 {
				t.Fatalf("a[%d] = %d", i, got)
			}
		}
	})
	// The early stop must have happened (2-word map, 8 distinct words).
	s := rt.Stats()
	if s.Commits != 1 {
		t.Fatalf("commits %d", s.Commits)
	}
}

func TestOverflowExhaustionRollsBack(t *testing.T) {
	// No check points at all: the overflow buffer fills up and the thread
	// has to roll back.
	rt := newRT(t, 2, func(o *Options) {
		o.GBuf = gbuf.Config{Backend: "openaddr", LogWords: 1, OverflowCap: 2}
	})
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * 64)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			for i := int64(0); i < 16; i++ {
				c.StoreInt64(p+mem.Addr(8*i), i)
			}
			return 0
		})
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackOverflow {
			t.Fatalf("status %v reason %v", res.Status, res.Reason)
		}
	})
}

func TestRealTimingMode(t *testing.T) {
	rt := newRT(t, 2, func(o *Options) { o.Timing = vclock.Real })
	var sum int64
	tn := rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * 128)
		for i := 0; i < 128; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), int64(i))
		}
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			s := int64(0)
			for i := 64; i < 128; i++ {
				s += c.LoadInt64(p + mem.Addr(8*i))
			}
			c.SaveRegvarInt64(1, s)
			return 0
		})
		for i := 0; i < 64; i++ {
			sum += t0.LoadInt64(arr + mem.Addr(8*i))
		}
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("real-mode join failed: %v", res.Reason)
		}
		sum += res.RegvarInt64(1)
	})
	if sum != 127*128/2 {
		t.Fatalf("sum %d", sum)
	}
	if tn <= 0 {
		t.Fatal("real runtime not positive")
	}
	s := rt.Stats()
	if s.Executions != 1 || s.SpecRuntime <= 0 {
		t.Fatalf("real-mode stats %+v", s)
	}
}
