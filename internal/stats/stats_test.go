package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func mkLedger(pairs map[vclock.Phase]vclock.Cost) vclock.Ledger {
	var l vclock.Ledger
	for p, v := range pairs {
		l[p] = v
	}
	return l
}

func TestAddComputesWorkResidual(t *testing.T) {
	c := NewCollector(2)
	// 100-cost execution, 30 booked as fork+idle, so 70 must become work.
	c.Add(ExecRecord{Rank: 1, Start: 0, End: 100, Committed: true,
		Ledger: mkLedger(map[vclock.Phase]vclock.Cost{vclock.Fork: 10, vclock.Idle: 20})})
	s := c.Summarize(2)
	if s.SpecLedger[vclock.Work] != 70 {
		t.Fatalf("work residual = %d, want 70", s.SpecLedger[vclock.Work])
	}
	if s.SpecRuntime != 100 {
		t.Fatalf("spec runtime = %d", s.SpecRuntime)
	}
}

func TestAddReclassifiesRollbackAsWasted(t *testing.T) {
	c := NewCollector(2)
	c.Add(ExecRecord{Rank: 1, Start: 0, End: 100, Committed: false,
		Ledger: mkLedger(map[vclock.Phase]vclock.Cost{vclock.Work: 60, vclock.Validation: 40})})
	s := c.Summarize(2)
	if s.SpecLedger[vclock.Wasted] != 60 || s.SpecLedger[vclock.Work] != 0 {
		t.Fatalf("wasted=%d work=%d", s.SpecLedger[vclock.Wasted], s.SpecLedger[vclock.Work])
	}
	if s.SpecLedger[vclock.Validation] != 40 {
		t.Fatal("validation time must survive a rollback")
	}
	if s.Rollbacks != 1 || s.Commits != 0 {
		t.Fatalf("counts %d/%d", s.Commits, s.Rollbacks)
	}
}

func TestAddIgnoresBadRanks(t *testing.T) {
	c := NewCollector(2)
	c.Add(ExecRecord{Rank: 0, End: 10})
	c.Add(ExecRecord{Rank: 3, End: 10})
	c.Add(ExecRecord{Rank: -1, End: 10})
	if s := c.Summarize(2); s.Executions != 0 {
		t.Fatal("bad ranks stored")
	}
}

func TestEfficienciesMatchPaperDefinitions(t *testing.T) {
	c := NewCollector(4)
	// Non-speculative thread: runtime 1000, work 800 (ηcrit = 0.8).
	c.SetNonSpec(1000, mkLedger(map[vclock.Phase]vclock.Cost{
		vclock.Work: 800, vclock.Idle: 150, vclock.Join: 30, vclock.Fork: 15, vclock.FindCPU: 5}))
	// Two speculative executions: total runtime 500, work 300 (ηsp = 0.6).
	c.Add(ExecRecord{Rank: 1, Start: 0, End: 300, Committed: true,
		Ledger: mkLedger(map[vclock.Phase]vclock.Cost{vclock.Work: 200, vclock.Idle: 100})})
	c.Add(ExecRecord{Rank: 2, Start: 100, End: 300, Committed: true,
		Ledger: mkLedger(map[vclock.Phase]vclock.Cost{vclock.Work: 100, vclock.Commit: 100})})
	s := c.Summarize(4)
	if got := s.CritEfficiency(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("ηcrit = %v", got)
	}
	if got := s.SpecEfficiency(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("ηsp = %v", got)
	}
	// Coverage = 500/1000.
	if got := s.Coverage(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage = %v", got)
	}
	// Power efficiency with Ts=1200: 1200/(1000+500).
	if got := s.PowerEfficiency(1200); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("ηpower = %v", got)
	}
	// Speedup with Ts=1200: 1.2.
	if got := s.Speedup(1200); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("speedup = %v", got)
	}
}

func TestZeroGuards(t *testing.T) {
	s := &Summary{}
	if s.CritEfficiency() != 0 || s.SpecEfficiency() != 0 || s.Coverage() != 0 ||
		s.PowerEfficiency(10) != 0 || s.Speedup(10) != 0 {
		t.Fatal("zero-state metrics not guarded")
	}
	if len(Breakdown(vclock.Ledger{}, 0, CritBreakdownPhases)) != 0 {
		t.Fatal("breakdown with zero runtime")
	}
}

func TestBreakdownShares(t *testing.T) {
	l := mkLedger(map[vclock.Phase]vclock.Cost{
		vclock.Work: 50, vclock.Idle: 25, vclock.Join: 25})
	b := Breakdown(l, 100, CritBreakdownPhases)
	if b[vclock.Work] != 0.5 || b[vclock.Idle] != 0.25 || b[vclock.Join] != 0.25 {
		t.Fatalf("breakdown %v", b)
	}
	if b[vclock.Fork] != 0 {
		t.Fatal("unused phase nonzero")
	}
}

func TestBreakdownPhaseSetsMatchFigures(t *testing.T) {
	// Figure 8 legend: work, join, idle, fork, find CPU.
	want8 := []string{"work", "join", "idle", "fork", "find CPU"}
	for i, p := range CritBreakdownPhases {
		if p.String() != want8[i] {
			t.Fatalf("Fig8 category %d = %s, want %s", i, p, want8[i])
		}
	}
	// Figure 9 legend: wasted work, finalize, commit, validation, overflow,
	// idle, fork, find CPU (+ work remainder).
	want9 := []string{"wasted work", "finalize", "commit", "validation", "overflow", "idle", "fork", "find CPU", "work"}
	for i, p := range SpecBreakdownPhases {
		if p.String() != want9[i] {
			t.Fatalf("Fig9 category %d = %s, want %s", i, p, want9[i])
		}
	}
}

// The runtime fills PerPoint from its per-point counters; the collector
// supplies the totals the per-point figures are read against.
func TestPerPointStats(t *testing.T) {
	c := NewCollector(4)
	c.Add(ExecRecord{Rank: 1, Start: 0, End: 10, Committed: true})
	c.Add(ExecRecord{Rank: 2, Start: 0, End: 10, Committed: false})
	c.Add(ExecRecord{Rank: 3, Start: 0, End: 20, Committed: true})
	s := c.Summarize(4)
	if s.PerPoint == nil || len(s.PerPoint) != 0 {
		t.Fatalf("collector's PerPoint = %v, want an empty map for the runtime to fill", s.PerPoint)
	}
	s.PerPoint[1] = PointStats{Commits: 1, Runtime: 20}
	s.PerPoint[0] = PointStats{Commits: 1, Rollbacks: 1, Runtime: 20}
	if got := s.PointsSorted(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("PointsSorted = %v", got)
	}
	if s.Rollbacks != 1 || s.Executions != 3 {
		t.Fatalf("%d rollbacks of %d executions, want 1 of 3", s.Rollbacks, s.Executions)
	}
}

func TestResetClears(t *testing.T) {
	c := NewCollector(2)
	c.Add(ExecRecord{Rank: 1, Start: 0, End: 10, Committed: true})
	c.SetNonSpec(100, vclock.Ledger{})
	c.Reset()
	s := c.Summarize(2)
	if s.Executions != 0 || s.NonSpecRuntime != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSummaryString(t *testing.T) {
	c := NewCollector(2)
	c.SetNonSpec(100, vclock.Ledger{})
	s := c.Summarize(2)
	str := s.String()
	for _, frag := range []string{"cpus=2", "Tn=100", "ηcrit"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("summary string %q missing %q", str, frag)
		}
	}
}
