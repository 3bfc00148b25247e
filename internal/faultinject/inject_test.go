package faultinject

import (
	"context"
	"testing"
)

// TestDeterminism: two plans with the same seed and rules must produce the
// same decision stream per site.
func TestDeterminism(t *testing.T) {
	rules := []Rule{
		{Site: SitePoll, Kind: KindPanic, Prob: 0.05},
		{Site: SitePoll, Kind: KindRollback, Prob: 0.2},
		{Site: SiteCommit, Kind: KindRollback, Prob: 0.3},
	}
	a := NewPlan(42, rules)
	b := NewPlan(42, rules)
	for i := 0; i < 10000; i++ {
		if ka, kb := a.Decide(SitePoll), b.Decide(SitePoll); ka != kb {
			t.Fatalf("decision %d: %v != %v", i, ka, kb)
		}
		if ka, kb := a.Decide(SiteCommit), b.Decide(SiteCommit); ka != kb {
			t.Fatalf("commit decision %d: %v != %v", i, ka, kb)
		}
	}
	if a.Total() == 0 {
		t.Fatal("no injections in 10000 decisions at 25% total rate")
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals diverge: %d != %d", a.Total(), b.Total())
	}
}

// TestSeedsDiffer: different seeds should produce different mixes.
func TestSeedsDiffer(t *testing.T) {
	rules := []Rule{{Site: SitePoll, Kind: KindPanic, Prob: 0.5}}
	a, b := NewPlan(1, rules), NewPlan(2, rules)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Decide(SitePoll) == b.Decide(SitePoll) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seeds 1 and 2 produced identical decision streams")
	}
}

// TestNilPlan: a nil plan — what a context without one carries — is a
// valid no-op for every method.
func TestNilPlan(t *testing.T) {
	p := From(context.Background())
	if p != nil || p.Decide(SitePoll) != KindNone || p.Seq(SitePoll) != 0 || p.Total() != 0 {
		t.Fatal("nil plan is not inert")
	}
	if p.String() != "clean" {
		t.Fatalf("nil plan String = %q", p.String())
	}
}

// TestStacking: per-site rule probabilities stack; the observed rates must
// track the configured ones.
func TestStacking(t *testing.T) {
	p := NewPlan(99, []Rule{
		{Site: SitePoll, Kind: KindPanic, Prob: 0.1},
		{Site: SitePoll, Kind: KindRollback, Prob: 0.4},
	})
	const n = 20000
	for i := 0; i < n; i++ {
		p.Decide(SitePoll)
	}
	panics := p.Injected(SitePoll, KindPanic)
	rollbacks := p.Injected(SitePoll, KindRollback)
	if f := float64(panics) / n; f < 0.07 || f > 0.13 {
		t.Errorf("panic rate %v, want ≈0.1", f)
	}
	if f := float64(rollbacks) / n; f < 0.35 || f > 0.45 {
		t.Errorf("rollback rate %v, want ≈0.4", f)
	}
}
