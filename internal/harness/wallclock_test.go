package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// TestWallclockQuickSuite runs the CI-sized wall-clock sweep end to end
// and validates the JSON document's shape. Checksums are verified inside
// Wallclock (a mismatch is an error), so a pass also re-proves sequential
// equivalence under Real timing on the bulk kernels.
func TestWallclockQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock sweep in -short mode")
	}
	h := New(DefaultConfig())
	var buf bytes.Buffer
	cfg := WallclockConfig{Quick: true, CPUAxis: []int{1, 2}, Reps: 1}
	if err := h.Wallclock(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	var report WallclockReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if report.Suite != "mutls-wallclock" || !report.Quick {
		t.Fatalf("bad header: %+v", report)
	}
	if report.Warmup < 1 || report.Reps != 1 {
		t.Fatalf("warmup/reps not resolved: %+v", report)
	}
	if report.Host.NumCPU < 1 || report.Host.GoVersion == "" {
		t.Fatalf("host not recorded: %+v", report.Host)
	}
	if report.Provenance == "" {
		t.Fatal("no provenance recorded for the baseline")
	}
	want := map[string]bool{
		"mandelbrot": true, "md": true, "fft": true, "matmult": true,
		"stencil": true, "floatsum": true,
	}
	for _, w := range report.Workloads {
		if !want[w.Name] {
			t.Fatalf("unexpected workload %q", w.Name)
		}
		delete(want, w.Name)
		if w.SeqNS <= 0 {
			t.Fatalf("%s: no sequential baseline", w.Name)
		}
		if len(w.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", w.Name, len(w.Points))
		}
		for _, p := range w.Points {
			if p.NS <= 0 || p.Speedup <= 0 {
				t.Fatalf("%s: degenerate point %+v", w.Name, p)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing workloads: %v", want)
	}
}

// TestClipAxis: a wall-clock axis keeps the points the host can run in
// parallel, always keeps the first speculative point, and never invents
// one — this is the only host-width clamp; runtimes themselves take the
// CPU count they are given in either timing mode.
func TestClipAxis(t *testing.T) {
	cases := []struct {
		axis  []int
		procs int
		want  []int
	}{
		{DefaultCPUAxis, 2, []int{1, 2}},
		{DefaultCPUAxis, 1, []int{1, 2}},
		{DefaultCPUAxis, 8, []int{1, 2, 4, 8}},
		{DefaultCPUAxis, 128, DefaultCPUAxis},
		{[]int{16, 64}, 4, nil},
		{[]int{3, 1, 6}, 4, []int{3, 1}},
	}
	for _, tc := range cases {
		if got := ClipAxis(tc.axis, tc.procs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ClipAxis(%v, %d) = %v, want %v", tc.axis, tc.procs, got, tc.want)
		}
	}
	// The suite's default axis goes through the same clip.
	procs := runtime.GOMAXPROCS(0)
	for _, quick := range []bool{false, true} {
		for _, p := range (WallclockConfig{Quick: quick}).defaults().CPUAxis {
			if p > procs && p > 2 {
				t.Errorf("quick=%v: default axis point %d exceeds GOMAXPROCS %d", quick, p, procs)
			}
		}
	}
}
