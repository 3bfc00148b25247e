package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/vclock"
)

// waitReady spins until the CPU occupied by rank has published its stop
// (white-box: the parent can then interfere with stores that are
// guaranteed to postdate every load of the region).
func waitReady(rt *Runtime, r Rank) {
	for rt.cpus[r].td.state.Load() != cpuReady {
		runtime.Gosched()
	}
}

// withProcs raises GOMAXPROCS for the test's duration so NewRuntime
// enables the optimistic pre-validation path even on a single-core host
// (the runtime disables the overlap when there is nothing to overlap
// with; these tests exercise the overlapped protocol itself).
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestPreValidateCleanCommit: a speculation whose read set is untouched
// commits through the optimistic path with exactly one (successful)
// validation — the split must not change verdicts or counters.
func TestPreValidateCleanCommit(t *testing.T) {
	withProcs(t, 2)
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		t0.StoreInt64(arr, 5)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p+8, c.LoadInt64(p)*2)
			return 0
		})
		waitReady(rt, ranks[0])
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("clean speculation did not commit: %v (%v)", res.Status, res.Reason)
		}
		if got := t0.LoadInt64(arr + 8); got != 10 {
			t.Fatalf("committed value %d, want 10", got)
		}
	})
	s := rt.Stats()
	if s.GBuf.Validations != 1 || s.GBuf.ValidationFail != 0 {
		t.Fatalf("validations %d/fail %d, want 1/0", s.GBuf.Validations, s.GBuf.ValidationFail)
	}
}

// TestPreValidateCatchesLateWrite: the parent overwrites a word the region
// read strictly after the region stopped — after its optimistic
// pre-validation may already have passed. The stamp table must force the
// lock-time re-check to see the conflict, whichever side of the
// pre-validation snapshot the write landed on.
func TestPreValidateCatchesLateWrite(t *testing.T) {
	withProcs(t, 2)
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16)
		t0.StoreInt64(arr, 1)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			c.StoreInt64(p+8, c.LoadInt64(p))
			return 0
		})
		waitReady(rt, ranks[0])
		// The region has stopped: every load it made is in the past. This
		// store invalidates its read set and stamps the page.
		t0.StoreInt64(arr, 2)
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackValidation {
			t.Fatalf("join %v (%v), want rolled-back/validation", res.Status, res.Reason)
		}
		if got := t0.LoadInt64(arr + 8); got != 0 {
			t.Fatalf("rolled-back write leaked: %d", got)
		}
	})
	s := rt.Stats()
	if s.GBuf.Validations != 1 || s.GBuf.ValidationFail != 1 {
		t.Fatalf("validations %d/fail %d, want 1/1", s.GBuf.Validations, s.GBuf.ValidationFail)
	}
}

// TestConcurrentJoinersStress runs many fork/join rounds with the parent
// storing to a hot word the regions read, so pre-validations, stamp marks
// and commits race on the dirty table from several goroutines at once.
// Run under -race this is the memory-model check of the optimistic split;
// the expectation tracking checks that exactly the committed speculations'
// writes land.
func TestConcurrentJoinersStress(t *testing.T) {
	const cpus = 4
	const rounds = 50
	withProcs(t, cpus+1) // real timing forks only onto a free proc
	rt := newRT(t, cpus, func(o *Options) { o.Timing = vclock.Real })
	var got, want [cpus]int64
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * (cpus + 1))
		hot := arr + 8*cpus
		ranks := make([]Rank, cpus)
		for round := 0; round < rounds; round++ {
			forked := 0
			for i := 0; i < cpus; i++ {
				h := t0.Fork(ranks, i, Mixed)
				if h == nil {
					continue
				}
				forked++
				h.SetRegvarAddr(0, arr+mem.Addr(8*i))
				h.SetRegvarAddr(1, hot)
				h.Start(func(c *Thread) uint32 {
					p := c.GetRegvarAddr(0)
					// Read the hot word the parent keeps overwriting: the
					// speculation is only allowed to commit if the value it
					// saw survives until its serial section.
					_ = c.LoadInt64(c.GetRegvarAddr(1))
					c.StoreInt64(p, c.LoadInt64(p)+1)
					return 0
				})
				// Interfere while speculations are in flight.
				t0.StoreInt64(hot, int64(round*cpus+i))
			}
			for i := 0; i < cpus; i++ {
				if ranks[i] == 0 {
					continue
				}
				if res := t0.Join(ranks, i); res.Committed() {
					want[i]++
				}
			}
			if forked == 0 {
				t.Fatal("no fork succeeded in a quiescent round")
			}
		}
		for i := 0; i < cpus; i++ {
			got[i] = t0.LoadInt64(arr + mem.Addr(8*i))
		}
	})
	if got != want {
		t.Fatalf("committed increments %v, joins reported %v", got, want)
	}
}

// TestFillWords covers the memset-shaped accessor on both sides of the
// speculation boundary: direct fill with stamping for the non-speculative
// thread, buffered StoreFill for a region (visible only after commit).
func TestFillWords(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * 8)
		t0.FillWords(arr, 8, 0xDEAD)
		for i := 0; i < 8; i++ {
			if got := t0.LoadInt64(arr + mem.Addr(8*i)); got != 0xDEAD {
				t.Fatalf("word %d: %#x", i, got)
			}
		}
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			c.ZeroWords(c.GetRegvarAddr(0), 4)
			return 0
		})
		waitReady(rt, ranks[0])
		// Buffered: nothing visible before the join commits it.
		if got := t0.LoadInt64(arr); got != 0xDEAD {
			t.Fatalf("speculative fill leaked before commit: %#x", got)
		}
		if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
			t.Fatalf("join %v (%v)", res.Status, res.Reason)
		}
		for i := 0; i < 8; i++ {
			want := int64(0)
			if i >= 4 {
				want = 0xDEAD
			}
			if got := t0.LoadInt64(arr + mem.Addr(8*i)); got != want {
				t.Fatalf("word %d after commit: %#x, want %#x", i, got, want)
			}
		}
	})
}
