package core

import (
	"testing"

	"repro/internal/stats"
)

// TestPointViewsAgree: PointProfile, PointFaults and Summary.PerPoint are
// views of one per-point store, so after a run that
// ends executions every way there is — commit, validated rollback,
// contained fault, NOSYNC — they report the same numbers, and ResetStats
// clears them together. What ResetStats leaves alone is the verdict on the
// point's owner: the fault count and the disabled flag.
func TestPointViewsAgree(t *testing.T) {
	rt := newRT(t, 2, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 3)
		fork := func(p int, region RegionFunc) {
			t.Helper()
			h := t0.Fork(ranks, p, Mixed)
			if h == nil {
				t.Fatalf("fork on point %d refused", p)
			}
			h.SetRegvarInt64(0, 1)
			h.Start(region)
		}
		work := func(c *Thread) uint32 { c.Tick(10); return 0 }
		for i := 0; i < 3; i++ { // point 0: three commits …
			fork(0, work)
			if res := t0.Join(ranks, 0); !res.Committed() {
				t.Fatalf("join %d: %v (%v)", i, res.Status, res.Reason)
			}
		}
		for i := 0; i < 2; i++ { // … and two mispredicted live-ins
			fork(0, work)
			t0.ValidateRegvarInt64(ranks, 0, 0, 2)
			if res := t0.Join(ranks, 0); res.Reason != RollbackLocals {
				t.Fatalf("misprediction %d: %v (%v)", i, res.Status, res.Reason)
			}
		}
		for i := 0; i < faultDisableThreshold-1; i++ { // point 1: faults, below the threshold
			fork(1, func(c *Thread) uint32 { panic("fault") })
			if res := t0.Join(ranks, 1); res.Reason != RollbackFault {
				t.Fatalf("fault %d: %v (%v)", i, res.Status, res.Reason)
			}
		}
		mark := t0.ChildMark() // point 2: one squashed without a join
		fork(2, work)
		t0.SquashChildren(mark)
	})

	type counts struct{ commits, rollbacks int64 }
	want := map[int]counts{
		0: {commits: 3, rollbacks: 2},
		1: {rollbacks: faultDisableThreshold - 1},
		2: {rollbacks: 1},
	}
	check := func(when string, want map[int]counts) {
		t.Helper()
		s := rt.Stats()
		if len(s.PerPoint) != len(want) {
			t.Errorf("%s: PerPoint has points %v, want %d of them", when, s.PointsSorted(), len(want))
		}
		var commits, rollbacks int
		for p := 0; p < 3; p++ {
			c, r, _ := rt.PointProfile(p)
			if c != want[p].commits || r != want[p].rollbacks {
				t.Errorf("%s: point %d profile %d/%d, want %d/%d", when, p,
					c, r, want[p].commits, want[p].rollbacks)
			}
			ps := s.PerPoint[p]
			if ps.Commits != int(c) || ps.Rollbacks != int(r) {
				t.Errorf("%s: point %d PerPoint %+v, profile says %d/%d", when, p, ps, c, r)
			}
			commits += int(c)
			rollbacks += int(r)
		}
		if s.Commits != commits || s.Rollbacks != rollbacks || s.Executions != commits+rollbacks {
			t.Errorf("%s: summary %d/%d/%d, points add up to %d/%d", when,
				s.Commits, s.Rollbacks, s.Executions, commits, rollbacks)
		}
	}
	check("after the run", want)
	if got, n := rt.Stats().Faults.SpecPanics, rt.points[1].faults.Load(); got != n || n != faultDisableThreshold-1 {
		t.Errorf("SpecPanics %d, PointFaults(1) %d, want both %d", got, n, faultDisableThreshold-1)
	}

	rt.ResetStats()
	check("after ResetStats", nil)
	if n := rt.points[1].faults.Load(); n != faultDisableThreshold-1 {
		t.Errorf("ResetStats changed PointFaults(1) to %d", n)
	}
	// One more fault reaches the threshold counted across the reset, and
	// the joiner is refused at its very next Fork.
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 2)
		h := t0.Fork(ranks, 1, Mixed)
		if h == nil {
			t.Fatal("fork refused below the fault threshold")
		}
		h.Start(func(c *Thread) uint32 { panic("fault") })
		t0.Join(ranks, 1)
		if t0.Fork(ranks, 1, Mixed) != nil {
			t.Fatal("fork allowed at the fault threshold")
		}
	})
	check("after the second run", map[int]counts{1: {rollbacks: 1}})
	rt.ResetStats()
	if _, _, disabled := rt.PointProfile(1); !disabled {
		t.Error("ResetStats re-enabled a disabled point")
	}
}

// TestFoldDoesNotAllocate: neither half of the per-execution fold
// allocates, so no statistics storage grows with the number of executions.
func TestFoldDoesNotAllocate(t *testing.T) {
	rt := newRT(t, 1, nil)
	rec := stats.ExecRecord{Rank: 1, End: 50, Committed: true}
	out := execOutcome{committed: true, latency: 50, wallNS: 1000}
	if a := testing.AllocsPerRun(1000, func() {
		rt.points[0].observe(out)
		rt.collector.Add(rec)
	}); a != 0 {
		t.Fatalf("the fold allocates %v objects per execution", a)
	}
}
