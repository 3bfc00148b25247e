package core

import "testing"

// TestAllocPointExhaustion: ids freed by finished runs are reused without
// aliasing, and only more than MaxPoints *simultaneously live* runs trip
// the exhaustion counter — which Summary surfaces so a long-lived
// multi-tenant runtime can see its feedback quality degrade.
func TestAllocPointExhaustion(t *testing.T) {
	rt := newRT(t, 1, func(o *Options) { o.MaxPoints = 4 })
	var ps []int
	for i := 0; i < 4; i++ {
		ps = append(ps, rt.AllocPoint())
	}
	if got := rt.PointsExhausted(); got != 0 {
		t.Fatalf("PointsExhausted = %d after filling the namespace, want 0", got)
	}
	// Alloc/free churn at full-minus-one occupancy never aliases.
	rt.FreePoint(ps[2])
	for i := 0; i < 10; i++ {
		p := rt.AllocPoint()
		if p != 2 {
			t.Fatalf("alloc with only id 2 free returned %d", p)
		}
		rt.FreePoint(p)
	}
	if got := rt.PointsExhausted(); got != 0 {
		t.Fatalf("PointsExhausted = %d under churn, want 0", got)
	}
	// A fifth simultaneously live run must alias — and be counted.
	rt.AllocPoint()
	p := rt.AllocPoint()
	if p < 0 || p >= 4 {
		t.Fatalf("aliased point %d out of range", p)
	}
	if got := rt.PointsExhausted(); got != 1 {
		t.Fatalf("PointsExhausted = %d after aliasing alloc, want 1", got)
	}
	if got := rt.Stats().PointsExhausted; got != 1 {
		t.Fatalf("Summary.PointsExhausted = %d, want 1", got)
	}
	// ResetStats clears the counter; ResetPoints clears the namespace.
	rt.ResetStats()
	if got := rt.Stats().PointsExhausted; got != 0 {
		t.Fatalf("Summary.PointsExhausted = %d after ResetStats, want 0", got)
	}
	rt.ResetPoints()
	for i := 0; i < 4; i++ {
		if p := rt.AllocPoint(); p != i {
			t.Fatalf("post-reset alloc %d = %d, want %d", i, p, i)
		}
	}
	if got := rt.PointsExhausted(); got != 0 {
		t.Fatalf("PointsExhausted = %d after ResetPoints refill, want 0", got)
	}
}

// TestAllocPointDistinctRoundRobin pins the allocator contract: ids walk
// [0, MaxPoints) in order and wrap, and a block allocation is internally
// distinct.
func TestAllocPointDistinctRoundRobin(t *testing.T) {
	rt := newRT(t, 1, nil)
	max := rt.MaxPoints()
	for i := 0; i < 2*max; i++ {
		if p := rt.AllocPoint(); p != i%max {
			t.Fatalf("alloc %d = point %d, want %d", i, p, i%max)
		}
	}
	ps := rt.AllocPoints(max)
	seen := make(map[int]bool, max)
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("AllocPoints handed out point %d twice", p)
		}
		seen[p] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AllocPoints beyond MaxPoints did not panic")
		}
	}()
	rt.AllocPoints(max + 1)
}

// TestAllocPointResetsHeuristic: a point the adaptive fork heuristic
// disabled for one loop must come back enabled, with a fresh sample window,
// when the allocator recycles its id to a different run — otherwise an
// unrelated loop inheriting the id would silently run serial forever. The
// statistics of the id's previous owner stay until ResetStats.
func TestAllocPointResetsHeuristic(t *testing.T) {
	rt := newRT(t, 1, nil)
	for i := 0; i < heuristicMinSamples; i++ {
		rt.points[5].observe(execOutcome{}, true)
	}
	if _, _, disabled := rt.PointProfile(5); !disabled {
		t.Fatal("rollback-heavy point was not disabled")
	}
	for i := 0; i < rt.MaxPoints(); i++ {
		if p := rt.AllocPoint(); p == 5 {
			break
		}
	}
	// The new owner's first rollback is judged alone, not on top of the
	// old owner's.
	rt.points[5].observe(execOutcome{}, true)
	c, r, disabled := rt.PointProfile(5)
	if disabled {
		t.Fatal("recycled point inherited its previous owner's verdict")
	}
	if c != 0 || r != heuristicMinSamples+1 {
		t.Fatalf("recycled point's statistics: commits=%d rollbacks=%d, want 0/%d", c, r, heuristicMinSamples+1)
	}
}
