package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the tables in metrics.go
// are what the command prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the command", len(doc.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better || d.Bound != s.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, d, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d layer metrics in BENCHMARK.json, %d in the command", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, s := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
			t.Errorf("layer %d: %+v vs %+v", i, d, s)
		}
		if seen[s.Name] || len(s.Name) > 64 {
			t.Errorf("%s: duplicate or over-long name", s.Name)
		}
		seen[s.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d layer metrics, limit 128", len(perLayer))
	}
}
