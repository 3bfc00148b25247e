package harness

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/mutls"
)

func quickHarness() *Harness {
	cfg := DefaultConfig()
	cfg.CPUAxis = []int{1, 2, 4, 8}
	return New(cfg)
}

func TestTable1ContainsMUTLSRow(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, frag := range []string{"MUTLS", "mixed (tree)", "arbitrary", "Mitosis", "SableSpMT"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I missing %q", frag)
		}
	}
}

func TestTable2ListsAllBenchmarks(t *testing.T) {
	var buf bytes.Buffer
	quickHarness().Table2(&buf)
	out := buf.String()
	for _, w := range bench.All {
		if !strings.Contains(out, w.Name) {
			t.Errorf("Table II missing %s", w.Name)
		}
	}
	if !strings.Contains(out, "computation intensive") || !strings.Contains(out, "memory intensive") {
		t.Error("Table II missing characteristics column")
	}
}

func TestFig3HasCAndFortranSeries(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := h.Fig3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"3x+1 c", "3x+1 fortran", "mandelbrot c", "md fortran"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig3 missing series %q", frag)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 5 {
		t.Error("Fig3 missing axis rows")
	}
}

func TestFig4CoversMemoryIntensive(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := h.Fig4(&buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.MemoryIntensive() {
		if !strings.Contains(buf.String(), w.Name) {
			t.Errorf("Fig4 missing %s", w.Name)
		}
	}
}

func TestEfficiencyFiguresRun(t *testing.T) {
	h := quickHarness()
	for name, fig := range map[string]func(*Harness) error{
		"fig5": func(h *Harness) error { var b bytes.Buffer; return h.Fig5(&b) },
		"fig6": func(h *Harness) error { var b bytes.Buffer; return h.Fig6(&b) },
		"fig7": func(h *Harness) error { var b bytes.Buffer; return h.Fig7(&b) },
	} {
		if err := fig(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCoverageReportsAllBenchmarks(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := h.Coverage(&buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.All {
		if !strings.Contains(buf.String(), w.Name) {
			t.Errorf("coverage missing %s", w.Name)
		}
	}
}

func TestBreakdownFiguresHavePaperCategories(t *testing.T) {
	h := quickHarness()
	var b8 bytes.Buffer
	if err := h.Fig8(&b8); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"work", "join", "idle", "fork", "find CPU", "fft", "md"} {
		if !strings.Contains(b8.String(), frag) {
			t.Errorf("Fig8 missing %q", frag)
		}
	}
	var b9 bytes.Buffer
	if err := h.Fig9(&b9); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"wasted work", "finalize", "commit", "validation", "overflow", "matmult"} {
		if !strings.Contains(b9.String(), frag) {
			t.Errorf("Fig9 missing %q", frag)
		}
	}
}

func TestFig10NormalizedToMixed(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := h.Fig10(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"fft inorder", "fft outoforder", "nqueen inorder", "tsp outoforder"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Fig10 missing %q", frag)
		}
	}
}

func TestFig11HasPaperProbabilities(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := h.Fig11(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"1%", "5%", "10%", "20%", "50%", "100%", "mandelbrot", "bh"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Fig11 missing %q", frag)
		}
	}
}

func TestSpeedupChecksumGuard(t *testing.T) {
	// Speedup verifies checksums internally; a healthy run returns > 0.
	h := quickHarness()
	sp, err := h.Speedup(bench.X3P1, "c", 4, core.InOrder)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 {
		t.Fatalf("speedup %v", sp)
	}
}

func TestMeasurementCaching(t *testing.T) {
	h := quickHarness()
	if _, err := h.Spec(bench.X3P1, "c", 4, core.InOrder, 0); err != nil {
		t.Fatal(err)
	}
	n := len(h.spec)
	if _, err := h.Spec(bench.X3P1, "c", 4, core.InOrder, 0); err != nil {
		t.Fatal(err)
	}
	if len(h.spec) != n {
		t.Fatal("cache miss on repeated measurement")
	}
}

func TestFortranVariantSlowerThanC(t *testing.T) {
	h := quickHarness()
	c, err := h.Speedup(bench.X3P1, "c", 8, core.InOrder)
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.Speedup(bench.X3P1, "fortran", 8, core.InOrder)
	if err != nil {
		t.Fatal(err)
	}
	if f >= c {
		t.Fatalf("Fortran variant (%v) must trail C (%v), as in Fig. 3", f, c)
	}
}

// TestOverrideBackendKeepsSizing: the ablations sweep backends without
// discarding the operator's backend-independent sizing fields — every run
// of the sweep is built with the configured sizing under the swept name.
func TestOverrideBackendKeepsSizing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUAxis = []int{2}
	cfg.Buffering = mutls.Buffering{LogWords: 10, OverflowCap: 32}
	var ran []mutls.Buffering
	probe := &bench.Workload{
		Name:      "probe",
		HeapBytes: func(bench.Size) int { return 1 << 12 },
		Seq:       func(*mutls.Thread, bench.Size) uint64 { return 1 },
		Spec: func(th *mutls.Thread, _ bench.Size, _ bench.SpecOptions) uint64 {
			ran = append(ran, th.Runtime().Options().GBuf)
			return 1
		},
	}
	if err := New(cfg).ablation(io.Discard, "%d\n", []*bench.Workload{probe}, nil); err != nil {
		t.Fatal(err)
	}
	backends := mutls.Backends()
	if len(ran) != len(backends) {
		t.Fatalf("%d runs for backends %v", len(ran), backends)
	}
	for i, got := range ran {
		want := cfg.Buffering
		want.Backend = backends[i]
		if got.Backend != want.Backend || got.LogWords != want.LogWords || got.OverflowCap != want.OverflowCap {
			t.Fatalf("backend %s ran under %+v, want the sizing of %+v", backends[i], got, want)
		}
	}
}

// TestFigPipelineRunsAndVerifies: the workload-shapes ablation produces a
// row per (kernel, model, backend) cell — its internal checksum guard is
// the all-models x all-backends acceptance matrix of Pipeline and
// ReduceFloat64.
func TestFigPipelineRunsAndVerifies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUAxis = []int{4}
	var buf bytes.Buffer
	if err := New(cfg).FigPipeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"stencil", "floatsum", "inorder", "outoforder", "mixedlinear", "openaddr", "chain", "bitmap"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FigPipeline missing %q", frag)
		}
	}
	if rows := strings.Count(out, "\n"); rows < 2+2*4*3 {
		t.Fatalf("FigPipeline printed %d lines, want at least %d", rows, 2+2*4*3)
	}
}

func TestAllRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	cfg := DefaultConfig()
	cfg.CPUAxis = []int{1, 4, 8}
	var buf bytes.Buffer
	if err := New(cfg).All(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG. 11") {
		t.Fatal("All() output incomplete")
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
}
