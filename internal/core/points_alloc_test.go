package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// TestPointForInternsInFirstUseOrder pins the identity rule: distinct keys
// get distinct ids, dense in first-use order whatever the keys' values, and
// a key finds its id again at every later call, after ResetStats and after
// Recycle.
func TestPointForInternsInFirstUseOrder(t *testing.T) {
	rt := newRT(t, 1, nil)
	keys := []uintptr{0x7000, 0x10, 0x402000}
	for round, between := range []func(){func() {}, rt.ResetStats, rt.Recycle} {
		between()
		for want, k := range keys {
			if p := rt.PointFor(k); p != want {
				t.Fatalf("round %d: PointFor(%#x) = %d, want %d", round, k, p, want)
			}
		}
	}
	if got := rt.Stats().PointsExhausted; got != 0 {
		t.Fatalf("PointsExhausted = %d with three bodies, want 0", got)
	}
}

// TestPointForEvictsForThe65thBody: NumPoints bodies fill the table without
// an eviction; the next one takes over the first record — counted, so a
// program with more bodies than ids sees it — and that record starts from
// nothing: no counts, no estimate, no verdict. The evicted body comes back
// as a new one, on the next record round-robin.
func TestPointForEvictsForThe65thBody(t *testing.T) {
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	key := func(i int) uintptr { return uintptr(0x1000 + 16*i) }
	for i := 0; i < NumPoints; i++ {
		if p := rt.PointFor(key(i)); p != i {
			t.Fatalf("body %d interned at %d", i, p)
		}
	}
	rt.points[0].observe(execOutcome{committed: true})
	rt.points[0].refusedNoPay.Add(3)
	simulate(rt.points[0].estimate(), 0, 100, steady(2500, 6000))
	if got := rt.Stats().PointsExhausted; got != 0 {
		t.Fatalf("PointsExhausted = %d after filling the table, want 0", got)
	}

	if p := rt.PointFor(key(NumPoints)); p != 0 {
		t.Fatalf("the 65th body took record %d, want 0", p)
	}
	if got := rt.Stats().PointsExhausted; got != 1 {
		t.Fatalf("PointsExhausted = %d after one eviction, want 1", got)
	}
	if ps, ok := rt.Stats().PerPoint[0]; ok {
		t.Fatalf("the evicted record kept its counts: %+v", ps)
	}
	if pe := rt.points[0].estimate(); pe.noPay.Load() || pe.cost.n != 0 || pe.inline.n != 0 || pe.paid != 0 || pe.gap != 0 {
		t.Fatalf("the evicted record kept its estimate: noPay %v, joins %d, inline runs %d, probe gap %d", pe.noPay.Load(), pe.cost.n, pe.inline.n, pe.gap)
	}
	if p := rt.PointFor(key(1)); p != 1 {
		t.Fatalf("a body still in the table moved to %d", p)
	}
	if p := rt.PointFor(key(0)); p != 1 {
		t.Fatalf("the evicted body came back at %d, want record 1", p)
	}
	rt.ResetStats()
	if got := rt.Stats().PointsExhausted; got != 0 {
		t.Fatalf("PointsExhausted = %d after ResetStats, want 0", got)
	}
}

// TestPointForClearsTheCallVerdict: a point its faults disabled during one
// call of a body comes back enabled, with its fault count cleared, at the
// body's next call — otherwise one bad call would serialize the loop for the
// life of the runtime. The counts stay until ResetStats.
func TestPointForClearsTheCallVerdict(t *testing.T) {
	rt := newRT(t, 1, nil)
	p := rt.PointFor(0x401000)
	for i := 0; i < faultDisableThreshold; i++ {
		rt.points[p].observe(execOutcome{fault: true})
	}
	if _, _, disabled := rt.PointProfile(p); !disabled {
		t.Fatal("faulting point was not disabled")
	}
	if again := rt.PointFor(0x401000); again != p {
		t.Fatalf("the body moved from point %d to %d", p, again)
	}
	// The new call's first fault is counted alone, not on top of the last
	// call's.
	rt.points[p].observe(execOutcome{fault: true})
	c, r, disabled := rt.PointProfile(p)
	if disabled {
		t.Fatal("the call inherited the previous call's verdict")
	}
	if c != 0 || r != faultDisableThreshold+1 {
		t.Fatalf("the point's statistics: commits=%d rollbacks=%d, want 0/%d", c, r, faultDisableThreshold+1)
	}
}

// TestPointForFromSpeculativeThreads: drivers start on speculative threads
// too — a loop nested in a speculated chunk — while the non-speculative
// thread starts its own. Interning from all of them at once is safe (-race),
// evictions included, and while the table holds every body each thread sees
// one id per key.
func TestPointForFromSpeculativeThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3)) // a proc for each child
	for _, nKeys := range []int{16, NumPoints + 8} {
		rt := newRT(t, 2, func(o *Options) { o.Timing = vclock.Real })
		var mu sync.Mutex
		ids := map[uintptr]int{}
		intern := func(c *Thread, from int) {
			for i := from; i < from+200; i++ {
				k := uintptr(0x1000 + 16*(i%nKeys))
				p := rt.PointFor(k)
				// What a driver does next: the non-speculative thread times
				// its inline run, a speculative one reads the verdict.
				c.StartInline(p).Stop()
				rt.points[p].pay.noPay.Load()
				mu.Lock()
				if was, ok := ids[k]; ok && was != p && nKeys <= NumPoints {
					t.Errorf("key %#x interned at %d and at %d", k, was, p)
				}
				ids[k] = p
				mu.Unlock()
			}
		}
		forked := 0
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 2)
			for p := range ranks {
				if h := t0.Fork(ranks, p, OutOfOrder); h != nil {
					forked++
					h.SetRegvarInt64(0, int64(7*(p+1)))
					h.Start(func(c *Thread) uint32 {
						intern(c, int(c.GetRegvarInt64(0)))
						return 0
					})
				}
			}
			intern(t0, 0)
			t0.Join(ranks, 1)
			t0.Join(ranks, 0)
		})
		if forked == 0 {
			t.Fatalf("%d keys: no speculative thread started", nKeys)
		}
		if got := rt.Stats().PointsExhausted; (got > 0) != (nKeys > NumPoints) {
			t.Fatalf("%d keys: PointsExhausted = %d", nKeys, got)
		}
	}
}
