package main

import (
	"strings"
	"testing"
)

func e2eResult(workload string, values map[string]float64) Result {
	r := Result{Workload: workload, Seed: 1, Shape: Shape{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Total: 2},
		HostOK: true, Correct: true, Attempted: 100, Metrics: map[string]Metric{}}
	for _, s := range endToEnd {
		v, ok := values[s.Name]
		if !ok {
			v = 10
		}
		r.Metrics[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	return r
}

func boundOf(t *testing.T, name string) float64 {
	for _, s := range endToEnd {
		if s.Name == name {
			return s.Bound
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return 0
}

func TestCompareBounds(t *testing.T) {
	setupBound, speedupBound := boundOf(t, "setup_s"), boundOf(t, "speedup")
	a := []Result{e2eResult("loop-compute", map[string]float64{"setup_s": 40, "speedup": 2})}
	with := func(setup, speedup float64) []Result {
		return []Result{e2eResult("loop-compute", map[string]float64{"setup_s": setup, "speedup": speedup})}
	}

	within := with(40*(1+setupBound-0.01), 2*(1-speedupBound+0.01))
	if _, breaches, err := compareResults(a, within); err != nil || len(breaches) != 0 {
		t.Errorf("within bounds: breaches %v, err %v", breaches, err)
	}
	// lower-is-better worsens by going up, higher-is-better by going down.
	if _, breaches, _ := compareResults(a, with(40*(1+setupBound+0.01), 2)); len(breaches) != 1 || !strings.Contains(breaches[0], "setup_s") {
		t.Errorf("setup_s past its bound: breaches %v", breaches)
	}
	if _, breaches, _ := compareResults(a, with(40, 2*(1-speedupBound-0.01))); len(breaches) != 1 || !strings.Contains(breaches[0], "speedup") {
		t.Errorf("speedup past its bound: breaches %v", breaches)
	}
	// A gain of any size is not a breach.
	if _, breaches, _ := compareResults(a, with(10, 6)); len(breaches) != 0 {
		t.Errorf("a gain breached: %v", breaches)
	}
	// From a base of 0 any worsening is past every bound.
	if w := worseBy(0, 1, "lower"); !(w > 1) {
		t.Errorf("worseBy(0, 1, lower) = %g", w)
	}
	if w := worseBy(0, 0, "lower"); w != 0 {
		t.Errorf("worseBy(0, 0, lower) = %g", w)
	}
}

// What A measured and B lacks is a breach, not a row left out.
func TestCompareMissingFromB(t *testing.T) {
	a := []Result{e2eResult("loop-compute", nil), e2eResult("tree-mixed", nil)}
	b := []Result{e2eResult("loop-compute", nil)}
	if _, breaches, err := compareResults(a, b); err != nil || len(breaches) != 1 || !strings.Contains(breaches[0], "tree-mixed") {
		t.Errorf("a workload missing from B: breaches %v, err %v", breaches, err)
	}
	b = []Result{e2eResult("loop-compute", nil), e2eResult("tree-mixed", nil)}
	delete(b[1].Metrics, "speedup")
	if _, breaches, err := compareResults(a, b); err != nil || len(breaches) != 1 || !strings.Contains(breaches[0], "speedup") {
		t.Errorf("a bounded metric missing from B: breaches %v, err %v", breaches, err)
	}
}

func TestCompareRefusesHostNotOK(t *testing.T) {
	a := []Result{e2eResult("loop-compute", nil)}
	b := []Result{e2eResult("loop-compute", nil)}
	b[0].HostOK = false
	if _, _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "host_ok") {
		t.Errorf("a host_ok=false result compared: err %v", err)
	}
}

func TestCompareFailShare(t *testing.T) {
	a := []Result{e2eResult("serve-closed", nil)}
	b := []Result{e2eResult("serve-closed", nil)}
	b[0].Failed, b[0].FailShare = 1, 0.01
	if _, breaches, _ := compareResults(a, b); len(breaches) != 1 || !strings.Contains(breaches[0], "fail_share") {
		t.Errorf("fail_share 0 -> 0.01: breaches %v", breaches)
	}
}

func TestCompareRefusesOtherShapesAndSeeds(t *testing.T) {
	a := []Result{e2eResult("tree-mixed", nil)}
	b := []Result{e2eResult("tree-mixed", nil)}
	b[0].Shape.NumCPU = 8
	if _, _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "shapes") {
		t.Errorf("different host shapes compared: err %v", err)
	}
	b = []Result{e2eResult("tree-mixed", nil)}
	b[0].Seed = 2
	if _, _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Errorf("different seeds compared: err %v", err)
	}
	if _, _, err := compareResults(a, []Result{e2eResult("loop-memory", nil)}); err == nil {
		t.Error("files with no workload in common compared")
	}
}

func TestCompareLayerMetricsNeverFail(t *testing.T) {
	layer := func(v float64) []Result {
		r := e2eResult("ladder", nil)
		r.Trace = true
		r.Metrics = map[string]Metric{}
		for _, s := range perLayer {
			r.Metrics[s.Name] = Metric{Value: v, Unit: s.Unit}
		}
		return []Result{r}
	}
	rows, breaches, err := compareResults(layer(1), layer(100))
	if err != nil || len(breaches) != 0 {
		t.Errorf("layer metrics failed a comparison: %v %v", breaches, err)
	}
	if len(rows) != len(perLayer) {
		t.Errorf("%d rows, want one per layer metric (%d)", len(rows), len(perLayer))
	}
}
