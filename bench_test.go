// Package repro's root benchmarks regenerate every table and figure of the
// MUTLS paper as testing.B targets (go test -bench=.), plus the ablation
// benches for the runtime's design choices. Each benchmark prints
// the regenerated rows once via b.Logf-style output to stdout is avoided;
// instead the figures' data is produced through the harness and the bench
// measures the time to regenerate it (the real, wall-clock cost of the
// experiment pipeline). Shape assertions live in the package tests; these
// targets are the "one bench per table/figure" entry points.
package repro

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/gbuf"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/vclock"
	"repro/mutls"
)

// benchAxis keeps the figure benches fast while spanning the paper's range.
var benchAxis = []int{1, 4, 16, 64}

func newHarness() *harness.Harness {
	cfg := harness.DefaultConfig()
	cfg.CPUAxis = benchAxis
	return harness.New(cfg)
}

func runFigure(b *testing.B, fig func(io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fig(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
	}
}

func BenchmarkTable2_Workloads(b *testing.B) {
	h := newHarness()
	for i := 0; i < b.N; i++ {
		h.Table2(io.Discard)
	}
}

func BenchmarkFig3_ComputeSpeedup(b *testing.B)  { runFigure(b, newHarness().Fig3) }
func BenchmarkFig4_MemorySpeedup(b *testing.B)   { runFigure(b, newHarness().Fig4) }
func BenchmarkFig5_CritEfficiency(b *testing.B)  { runFigure(b, newHarness().Fig5) }
func BenchmarkFig6_SpecEfficiency(b *testing.B)  { runFigure(b, newHarness().Fig6) }
func BenchmarkFig7_PowerEfficiency(b *testing.B) { runFigure(b, newHarness().Fig7) }
func BenchmarkFig8_CritBreakdown(b *testing.B)   { runFigure(b, newHarness().Fig8) }
func BenchmarkFig9_SpecBreakdown(b *testing.B)   { runFigure(b, newHarness().Fig9) }

func BenchmarkFig10_ForkModels(b *testing.B) { runFigure(b, newHarness().Fig10) }

func BenchmarkFig11_RollbackSensitivity(b *testing.B) {
	h := harness.New(harness.Config{CPUAxis: []int{1, 16}, Timing: mutls.Virtual})
	runFigure(b, h.Fig11)
}

func BenchmarkCoverage(b *testing.B) { runFigure(b, newHarness().Coverage) }

// BenchmarkFigPipeline regenerates the workload-shapes ablation: the
// pipeline and float-reduction kernels across all models and backends.
func BenchmarkFigPipeline(b *testing.B) {
	h := harness.New(harness.Config{CPUAxis: []int{1, 8}, Timing: mutls.Virtual})
	runFigure(b, h.FigPipeline)
}

// --- Per-workload wall-clock benches: the real cost of one speculative run
// at 8 virtual CPUs under real timing (what the runtime itself costs on
// this host, as opposed to the modelled machine).

func benchWorkload(b *testing.B, w *bench.Workload) {
	b.Helper()
	cfg := bench.RunConfig{
		CPUs:   8,
		Size:   w.CISize,
		Model:  w.DefaultModel,
		Timing: mutls.Real,
		Cost:   mutls.DefaultCostModel(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.MeasureSpec(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkload3x1(b *testing.B)        { benchWorkload(b, bench.X3P1) }
func BenchmarkWorkloadMandelbrot(b *testing.B) { benchWorkload(b, bench.Mandelbrot) }
func BenchmarkWorkloadMD(b *testing.B)         { benchWorkload(b, bench.MD) }
func BenchmarkWorkloadBH(b *testing.B)         { benchWorkload(b, bench.BH) }
func BenchmarkWorkloadFFT(b *testing.B)        { benchWorkload(b, bench.FFT) }
func BenchmarkWorkloadMatMult(b *testing.B)    { benchWorkload(b, bench.MatMult) }
func BenchmarkWorkloadNQueen(b *testing.B)     { benchWorkload(b, bench.NQueen) }
func BenchmarkWorkloadTSP(b *testing.B)        { benchWorkload(b, bench.TSP) }
func BenchmarkWorkloadStencil(b *testing.B)    { benchWorkload(b, bench.Stencil) }
func BenchmarkWorkloadFloatSum(b *testing.B)   { benchWorkload(b, bench.FloatSum) }

// --- Ablations ---

// BenchmarkAblation_TreeVsLinear compares the tree-form mixed model against
// the Mitosis/POSH-style linear baseline under injected rollbacks: the
// linear cascade squashes logically later threads that the tree preserves.
func BenchmarkAblation_TreeVsLinear(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model mutls.Model
	}{{"tree", mutls.Mixed}, {"linear", mutls.MixedLinear}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := bench.RunConfig{
				CPUs: 8, Size: bench.NQueen.CISize, Model: tc.model,
				Timing: mutls.Virtual, Cost: mutls.DefaultCostModel(),
				RollbackProb: 0.10, Seed: 7,
			}
			wasted := int64(0)
			runs := 0
			for i := 0; i < b.N; i++ {
				m, err := bench.MeasureSpec(bench.NQueen, cfg)
				if err != nil {
					b.Fatal(err)
				}
				wasted += int64(m.Summary.SpecLedger[vclock.Wasted])
				runs++
			}
			b.ReportMetric(float64(wasted)/float64(runs), "wasted-vunits/run")
		})
	}
}

// BenchmarkAblation_BufferSize sweeps the GlobalBuffer hash map size: small
// maps overflow and force early stops or rollbacks.
func BenchmarkAblation_BufferSize(b *testing.B) {
	for _, logWords := range []int{6, 10, 16} {
		b.Run(map[int]string{6: "64w", 10: "1Kw", 16: "64Kw"}[logWords], func(b *testing.B) {
			arena, err := mem.NewArena(1 << 22)
			if err != nil {
				b.Fatal(err)
			}
			buf, err := gbuf.New(arena, gbuf.Config{LogWords: logWords, OverflowCap: 64})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 4096; j++ {
					p := mem.Addr(8 + (j*232%32768)*8)
					buf.Store(p, 8, uint64(j))
					buf.Load(p, 8)
				}
				buf.Validate()
				buf.Commit(nil)
				buf.Finalize()
			}
			b.ReportMetric(float64(buf.C.Conflicts), "conflicts")
		})
	}
}

// BenchmarkAblation_ValuePrediction compares last-value and stride
// predictors on induction-variable histories; accuracy is the share of warm
// predictions that equal the value observed next.
func BenchmarkAblation_ValuePrediction(b *testing.B) {
	for _, kind := range []predict.Kind{predict.LastValue, predict.Stride} {
		b.Run(kind.String(), func(b *testing.B) {
			p := predict.New(kind)
			hits, scored := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 1024; j++ {
					actual := uint64(j * 3)
					if v, ok := p.Predict(j%8, 0); ok {
						scored++
						if v == actual {
							hits++
						}
					}
					p.Observe(j%8, 0, actual)
				}
			}
			b.ReportMetric(float64(hits)/float64(scored), "accuracy")
		})
	}
}

// BenchmarkAblation_CommitFastPath isolates the whole-word-mark commit
// optimization against the byte-marked slow path.
func BenchmarkAblation_CommitFastPath(b *testing.B) {
	arena, err := mem.NewArena(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, store func(buf *gbuf.Buffer, p mem.Addr, j int)) {
		buf, err := gbuf.New(arena, gbuf.Config{LogWords: 14, OverflowCap: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4096; j++ {
				store(buf, mem.Addr(8+j*8), j)
			}
			buf.Commit(nil)
			buf.Finalize()
		}
	}
	b.Run("whole-word", func(b *testing.B) {
		run(b, func(buf *gbuf.Buffer, p mem.Addr, j int) { buf.Store(p, 8, uint64(j)) })
	})
	b.Run("byte-marked", func(b *testing.B) {
		run(b, func(buf *gbuf.Buffer, p mem.Addr, j int) { buf.Store(p, 1, uint64(j)) })
	})
}
