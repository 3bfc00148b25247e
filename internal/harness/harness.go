// Package harness regenerates every table and figure of the paper's
// evaluation section (§V): Table I (TLS system taxonomy), Table II
// (benchmark suite), Figure 3 (computation-intensive speedups), Figure 4
// (memory-intensive speedups), Figures 5-7 (critical path, speculative path
// and power efficiency), the parallel-coverage numbers of §V-B, Figures 8-9
// (critical and speculative path breakdowns), Figure 10 (forking model
// comparison) and Figure 11 (rollback sensitivity). Output is aligned text:
// the same rows/series the paper plots. Beyond the paper, FigGBuf runs the
// GlobalBuffer backend ablation over the same suite.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/mutls"
)

// DefaultCPUAxis subsamples the paper's 1..64 x-axis.
var DefaultCPUAxis = []int{1, 2, 4, 8, 16, 24, 32, 48, 64}

// ClipAxis drops the points of a total-CPU axis that the host cannot run in
// parallel. The ceiling is the schedulable parallelism, not the hardware
// core count: under a CPU quota (containers, CI runners) GOMAXPROCS is what
// the Go scheduler will actually run in parallel, and wall-clock points
// beyond it would measure time-slicing noise. Points up to two total CPUs
// always stay, so a one-proc host still measures one speculative point
// (which then validates overhead, not speedup).
func ClipAxis(axis []int, procs int) []int {
	var out []int
	for _, p := range axis {
		if p <= procs || p <= 2 {
			out = append(out, p)
		}
	}
	return out
}

// Config drives a harness session, expressed in public mutls types.
type Config struct {
	CPUAxis []int
	Paper   bool // Table II sizes instead of the quick defaults
	Timing  mutls.TimingMode
	Seed    uint64
	// Buffering selects the GlobalBuffer backend for every run (the -gbuf
	// flag); the FigGBuf ablation sweeps all backends regardless.
	Buffering mutls.Buffering
}

// DefaultConfig returns the quick deterministic configuration.
func DefaultConfig() Config {
	return Config{CPUAxis: DefaultCPUAxis, Timing: mutls.Virtual}
}

// Harness caches measurements so the efficiency figures reuse the speedup
// runs.
type Harness struct {
	cfg  Config
	seq  map[string]bench.Measurement
	spec map[string]bench.Measurement
}

// New creates a harness.
func New(cfg Config) *Harness {
	if len(cfg.CPUAxis) == 0 {
		cfg.CPUAxis = DefaultCPUAxis
	}
	return &Harness{cfg: cfg, seq: map[string]bench.Measurement{}, spec: map[string]bench.Measurement{}}
}

func (h *Harness) size(w *bench.Workload) bench.Size {
	if h.cfg.Paper {
		return w.PaperSize
	}
	return w.CISize
}

func (h *Harness) runCfg(w *bench.Workload, axisCPUs int, model mutls.Model, prob float64, cost mutls.CostModel) bench.RunConfig {
	return bench.RunConfig{
		// The paper's x-axis counts the non-speculative thread's CPU.
		CPUs:         axisCPUs - 1,
		Size:         h.size(w),
		Model:        model,
		Timing:       h.cfg.Timing,
		Cost:         cost,
		RollbackProb: prob,
		Seed:         h.cfg.Seed,
		Buffering:    h.cfg.Buffering,
	}
}

// Seq returns (cached) the sequential baseline of a workload under a cost
// model variant ("c" or "fortran").
func (h *Harness) Seq(w *bench.Workload, variant string) (bench.Measurement, error) {
	key := w.Name + "/" + variant
	if m, ok := h.seq[key]; ok {
		return m, nil
	}
	m, err := bench.MeasureSeq(w, h.runCfg(w, 1, w.DefaultModel, 0, costFor(variant)))
	if err == nil {
		h.seq[key] = m
	}
	return m, err
}

// Spec returns (cached) a speculative run.
func (h *Harness) Spec(w *bench.Workload, variant string, axisCPUs int, model mutls.Model, prob float64) (bench.Measurement, error) {
	key := fmt.Sprintf("%s/%s/%d/%v/%v", w.Name, variant, axisCPUs, model, prob)
	if m, ok := h.spec[key]; ok {
		return m, nil
	}
	m, err := bench.MeasureSpec(w, h.runCfg(w, axisCPUs, model, prob, costFor(variant)))
	if err == nil {
		h.spec[key] = m
	}
	return m, err
}

func costFor(variant string) mutls.CostModel {
	if variant == "fortran" {
		return mutls.FortranCostModel()
	}
	return mutls.DefaultCostModel()
}

// Speedup computes the absolute speedup Ts/TN of a cached pair.
func (h *Harness) Speedup(w *bench.Workload, variant string, axisCPUs int, model mutls.Model) (float64, error) {
	seq, err := h.Seq(w, variant)
	if err != nil {
		return 0, err
	}
	spec, err := h.Spec(w, variant, axisCPUs, model, 0)
	if err != nil {
		return 0, err
	}
	if spec.Checksum != seq.Checksum {
		return 0, fmt.Errorf("%s: checksum mismatch at %d CPUs", w.Name, axisCPUs)
	}
	return float64(seq.Runtime) / float64(spec.Runtime), nil
}

func newTab(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// Table1 prints the paper's Table I: the TLS system taxonomy, with MUTLS in
// its place.
func Table1(out io.Writer) {
	tw := newTab(out)
	fmt.Fprintln(out, "TABLE I. COMPARISON OF TLS SYSTEMS")
	fmt.Fprintln(tw, "\tSystem\tLanguage\tForking Model\tSpeculative Region")
	rows := []struct{ kind, name, lang, model, region string }{
		{"Hardware", "Jrpm", "Java", "in-order", "loop iteration"},
		{"Hardware", "SPT", "C", "in-order", "loop iteration"},
		{"Hardware", "STAMPede", "C", "in-order", "loop iteration"},
		{"Hardware", "Mitosis", "C", "mixed (linear)", "arbitrary"},
		{"Hardware", "POSH", "C", "mixed (linear)", "nested structure"},
		{"Software", "SableSpMT", "Java", "out-of-order", "method call"},
		{"Software", "Safe futures", "Java", "mixed (linear)", "method call"},
		{"Software", "BOP", "C", "in-order", "arbitrary"},
		{"Software", "SpLSC/SpLIP", "C++", "in-order", "loop iteration"},
		{"Software", "MUTLS", "arbitrary", "mixed (tree)", "arbitrary"},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.kind, r.name, r.lang, r.model, r.region)
	}
	tw.Flush()
}

// Table2 prints the benchmark suite summary with the sizes in effect.
func (h *Harness) Table2(out io.Writer) {
	tw := newTab(out)
	fmt.Fprintln(out, "TABLE II. BENCHMARKS")
	fmt.Fprintln(tw, "Benchmark\tDescription\tAmount of Data\tPattern\tLanguage\tCharacteristics")
	for _, w := range bench.All {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s intensive\n",
			w.Name, w.Description, w.AmountOfData(h.size(w)), w.Pattern, w.Language, w.Class)
	}
	tw.Flush()
}

// speedupFigure prints one speedup-vs-CPUs figure.
func (h *Harness) speedupFigure(out io.Writer, title string, series []seriesDef) error {
	tw := newTab(out)
	fmt.Fprintln(out, title)
	fmt.Fprint(tw, "CPUs")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.label)
	}
	fmt.Fprintln(tw)
	for _, cpus := range h.cfg.CPUAxis {
		fmt.Fprintf(tw, "%d", cpus)
		for _, s := range series {
			sp, err := h.Speedup(s.w, s.variant, cpus, s.w.DefaultModel)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2f", sp)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

type seriesDef struct {
	w       *bench.Workload
	variant string
	label   string
}

// Fig3 regenerates Figure 3: absolute speedup of the computation-intensive
// applications, C and Fortran variants.
func (h *Harness) Fig3(out io.Writer) error {
	var series []seriesDef
	for _, w := range bench.ComputationIntensive() {
		series = append(series,
			seriesDef{w, "c", w.Name + " c"},
			seriesDef{w, "fortran", w.Name + " fortran"})
	}
	return h.speedupFigure(out, "FIG. 3. Performance of Computation-Intensive Applications (absolute speedup)", series)
}

// Fig4 regenerates Figure 4: absolute speedup of the memory-intensive
// applications.
func (h *Harness) Fig4(out io.Writer) error {
	var series []seriesDef
	for _, w := range bench.MemoryIntensive() {
		series = append(series, seriesDef{w, "c", w.Name})
	}
	return h.speedupFigure(out, "FIG. 4. Performance of Memory-Intensive Applications (absolute speedup)", series)
}

// efficiencyFigure prints one efficiency-vs-CPUs figure over all
// benchmarks.
func (h *Harness) efficiencyFigure(out io.Writer, title string, metric func(*stats.Summary, vclock.Cost) float64) error {
	tw := newTab(out)
	fmt.Fprintln(out, title)
	fmt.Fprint(tw, "CPUs")
	for _, w := range bench.All {
		fmt.Fprintf(tw, "\t%s", w.Name)
	}
	fmt.Fprintln(tw)
	for _, cpus := range h.cfg.CPUAxis {
		if cpus < 2 {
			continue // no speculative threads, efficiency undefined
		}
		fmt.Fprintf(tw, "%d", cpus)
		for _, w := range bench.All {
			seq, err := h.Seq(w, "c")
			if err != nil {
				return err
			}
			m, err := h.Spec(w, "c", cpus, w.DefaultModel, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.3f", metric(m.Summary, seq.Runtime))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig5 regenerates Figure 5: critical path execution efficiency.
func (h *Harness) Fig5(out io.Writer) error {
	return h.efficiencyFigure(out, "FIG. 5. Critical Path Execution Efficiency",
		func(s *stats.Summary, _ vclock.Cost) float64 { return s.CritEfficiency() })
}

// Fig6 regenerates Figure 6: speculative path execution efficiency.
func (h *Harness) Fig6(out io.Writer) error {
	return h.efficiencyFigure(out, "FIG. 6. Speculative Path Execution Efficiency",
		func(s *stats.Summary, _ vclock.Cost) float64 { return s.SpecEfficiency() })
}

// Fig7 regenerates Figure 7: power efficiency.
func (h *Harness) Fig7(out io.Writer) error {
	return h.efficiencyFigure(out, "FIG. 7. Power Efficiency (Ts / total thread runtime)",
		func(s *stats.Summary, ts vclock.Cost) float64 { return s.PowerEfficiency(ts) })
}

// Coverage prints the §V-B parallel execution coverage numbers at the
// largest axis point.
func (h *Harness) Coverage(out io.Writer) error {
	cpus := h.cfg.CPUAxis[len(h.cfg.CPUAxis)-1]
	tw := newTab(out)
	fmt.Fprintf(out, "PARALLEL EXECUTION COVERAGE (§V-B) at %d CPUs\n", cpus)
	fmt.Fprintln(tw, "Benchmark\tC = Σ runtime_sp / runtime_nonsp")
	for _, w := range bench.All {
		m, err := h.Spec(w, "c", cpus, w.DefaultModel, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\n", w.Name, m.Summary.Coverage())
	}
	return tw.Flush()
}

// breakdownFigure prints one stacked-percentage breakdown.
func (h *Harness) breakdownFigure(out io.Writer, title string, workloads []*bench.Workload,
	phases []vclock.Phase, pick func(*stats.Summary) (vclock.Ledger, vclock.Cost)) error {
	for _, w := range workloads {
		tw := newTab(out)
		fmt.Fprintf(out, "%s — %s\n", title, w.Name)
		fmt.Fprint(tw, "CPUs")
		for _, p := range phases {
			fmt.Fprintf(tw, "\t%s", p)
		}
		fmt.Fprintln(tw)
		for _, cpus := range h.cfg.CPUAxis {
			if cpus < 2 {
				continue
			}
			m, err := h.Spec(w, "c", cpus, w.DefaultModel, 0)
			if err != nil {
				return err
			}
			ledger, runtime := pick(m.Summary)
			shares := stats.Breakdown(ledger, runtime, phases)
			fmt.Fprintf(tw, "%d", cpus)
			for _, p := range phases {
				fmt.Fprintf(tw, "\t%.1f%%", 100*shares[p])
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig8 regenerates Figure 8: critical path breakdown for fft and md.
func (h *Harness) Fig8(out io.Writer) error {
	return h.breakdownFigure(out, "FIG. 8. Critical Path Breakdown",
		[]*bench.Workload{bench.FFT, bench.MD}, stats.CritBreakdownPhases,
		func(s *stats.Summary) (vclock.Ledger, vclock.Cost) { return s.NonSpecLedger, s.NonSpecRuntime })
}

// Fig9 regenerates Figure 9: speculative path breakdown for fft and
// matmult.
func (h *Harness) Fig9(out io.Writer) error {
	return h.breakdownFigure(out, "FIG. 9. Speculative Path Breakdown",
		[]*bench.Workload{bench.FFT, bench.MatMult}, stats.SpecBreakdownPhases,
		func(s *stats.Summary) (vclock.Ledger, vclock.Cost) { return s.SpecLedger, s.SpecRuntime })
}

// Fig10 regenerates Figure 10: in-order and out-of-order speedups of the
// tree-form recursion benchmarks normalized to the mixed model.
func (h *Harness) Fig10(out io.Writer) error {
	workloads := []*bench.Workload{bench.FFT, bench.MatMult, bench.NQueen, bench.TSP}
	models := []mutls.Model{mutls.InOrder, mutls.OutOfOrder}
	tw := newTab(out)
	fmt.Fprintln(out, "FIG. 10. Comparison of Forking Models (speedup normalized to the mixed model)")
	fmt.Fprint(tw, "CPUs")
	for _, w := range workloads {
		for _, m := range models {
			fmt.Fprintf(tw, "\t%s %v", w.Name, m)
		}
	}
	fmt.Fprintln(tw)
	for _, cpus := range h.cfg.CPUAxis {
		fmt.Fprintf(tw, "%d", cpus)
		for _, w := range workloads {
			mixed, err := h.Speedup(w, "c", cpus, mutls.Mixed)
			if err != nil {
				return err
			}
			for _, m := range models {
				sp, err := h.Speedup(w, "c", cpus, m)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%.2f", sp/mixed)
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig11Probs are the paper's forced rollback probabilities.
var Fig11Probs = []float64{0.01, 0.05, 0.10, 0.20, 0.50, 1.00}

// FigGBuf is the GlobalBuffer backend ablation (beyond the paper): every
// registered backend runs the full benchmark suite at the largest axis
// point, and the table reports speedup, commits, rollbacks, conflict parks
// and the per-thread read/write-set high-water marks side by side. Every
// speculative result is checked against the sequential checksum, so the
// table doubles as a cross-backend equivalence run.
func (h *Harness) FigGBuf(out io.Writer) error {
	return h.ablation(out, "GBUF ABLATION. GlobalBuffer backends across the benchmark suite at %d CPUs\n", bench.All, nil)
}

// FigPipeline is the workload-shapes ablation (beyond the paper): the new
// pipeline (stencil) and float-reduction (floatsum) kernels run under all
// four forking models and every registered GlobalBuffer backend at the
// largest axis point, each speculative result checksum-verified against
// the sequential version — the acceptance matrix of the Pipeline and
// ReduceFloat64 drivers.
func (h *Harness) FigPipeline(out io.Writer) error {
	return h.ablation(out, "PIPELINE ABLATION. Pipeline and float-reduction kernels across models and backends at %d CPUs\n"+
		"(Pipeline/Reduce continuations cannot run in-order; the inorder rows exercise the requested name's remap to outoforder.)\n",
		bench.Extended, []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed, mutls.MixedLinear})
}

// ablation prints one checksum-verified row per workload, model and
// registered backend at the largest axis point. With models nil a workload
// runs under its default model, and Parks takes the Model column's place.
func (h *Harness) ablation(out io.Writer, heading string, workloads []*bench.Workload, models []mutls.Model) error {
	cpus := h.cfg.CPUAxis[len(h.cfg.CPUAxis)-1]
	modelCol := func(cell any) string { return optCol(models != nil, cell) }
	parksCol := func(cell any) string { return optCol(models == nil, cell) }
	tw := newTab(out)
	fmt.Fprintf(out, heading, cpus)
	fmt.Fprintf(tw, "Benchmark\t%sBackend\tSpeedup\tCommits\tRollbacks\t%sRdPeak\tWrPeak\n", modelCol("Model"), parksCol("Parks"))
	for _, w := range workloads {
		seq, err := h.Seq(w, "c")
		if err != nil {
			return err
		}
		ms := models
		if ms == nil {
			ms = []mutls.Model{w.DefaultModel}
		}
		for _, model := range ms {
			for _, backend := range mutls.Backends() {
				cfg := h.runCfg(w, cpus, model, 0, costFor("c"))
				cfg.Buffering.Backend = backend // the operator's sizing fields stay
				m, err := bench.MeasureSpec(w, cfg)
				if err != nil {
					return fmt.Errorf("%s/%v/%s: %w", w.Name, model, backend, err)
				}
				if m.Checksum != seq.Checksum {
					return fmt.Errorf("%s/%v/%s: checksum mismatch (speculative %#x != sequential %#x)",
						w.Name, model, backend, m.Checksum, seq.Checksum)
				}
				s := m.Summary
				fmt.Fprintf(tw, "%s\t%s%s\t%.2f\t%d\t%d\t%s%d\t%d\n",
					w.Name, modelCol(model), backend, float64(seq.Runtime)/float64(m.Runtime),
					s.Commits, s.Rollbacks, parksCol(s.GBuf.Conflicts), s.ReadSetPeak, s.WriteSetPeak)
			}
		}
	}
	return tw.Flush()
}

// optCol is a table cell that is only there when on.
func optCol(on bool, cell any) string {
	if !on {
		return ""
	}
	return fmt.Sprint(cell, "\t")
}

// Fig11 regenerates Figure 11: rollback sensitivity — the relative slowdown
// with respect to the non-rollback scenario under forced rollbacks.
func (h *Harness) Fig11(out io.Writer) error {
	cpus := h.cfg.CPUAxis[len(h.cfg.CPUAxis)-1]
	workloads := []*bench.Workload{
		bench.Mandelbrot, bench.MD, bench.FFT, bench.MatMult, bench.NQueen, bench.TSP, bench.BH,
	}
	tw := newTab(out)
	fmt.Fprintf(out, "FIG. 11. Rollback Sensitivity at %d CPUs (runtime without rollbacks / runtime with)\n", cpus)
	fmt.Fprint(tw, "Benchmark")
	for _, p := range Fig11Probs {
		fmt.Fprintf(tw, "\t%.0f%%", p*100)
	}
	fmt.Fprintln(tw)
	for _, w := range workloads {
		base, err := h.Spec(w, "c", cpus, w.DefaultModel, 0)
		if err != nil {
			return err
		}
		fmt.Fprint(tw, w.Name)
		for _, p := range Fig11Probs {
			m, err := h.Spec(w, "c", cpus, w.DefaultModel, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2f", float64(base.Runtime)/float64(m.Runtime))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Payoff prints the pay-off estimate (stats.PointStats) of every fork point
// that has one, over the speculative runs measured so far: what the guard
// in core saw when it kept a point forking or stopped it, how many forks it
// let through as probes while refusing, how many found no free proc, and
// how many joins were cold (their fork woke a parked worker). Real timing
// only; under virtual timing there are no estimates and nothing is printed.
func (h *Harness) Payoff(out io.Writer) error {
	keys := make([]string, 0, len(h.spec))
	for k := range h.spec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := newTab(out)
	fmt.Fprintln(tw, "run (workload/variant/CPUs/model/rollback)\tpoint\tcommits\trollbacks\trefused\tprobes\tno proc\tinline ns\tgain ns\tcost ns\tcold joins")
	rows := 0
	for _, k := range keys {
		s := h.spec[k].Summary
		for _, p := range s.PointsSorted() {
			ps := s.PerPoint[p]
			if ps.RefusedNoPay == 0 && ps.RefusedNoProc == 0 && ps.CostNS == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", k, p, ps.Commits, ps.Rollbacks, ps.RefusedNoPay, ps.Probes, ps.RefusedNoProc, ps.InlineNS, ps.GainNS, ps.CostNS, ps.ColdJoins)
			rows++
		}
	}
	if rows == 0 {
		return nil
	}
	fmt.Fprintln(out, "Pay-off estimates per fork point (refused: forks the do-no-harm guard turned down; probes: forks it let through while refusing; no proc: forks refused because every proc of the host was working)")
	return tw.Flush()
}

// All regenerates everything in paper order.
func (h *Harness) All(out io.Writer) error {
	Table1(out)
	fmt.Fprintln(out)
	h.Table2(out)
	fmt.Fprintln(out)
	steps := []func(io.Writer) error{
		h.Fig3, h.Fig4, h.Fig5, h.Fig6, h.Fig7, h.Coverage, h.Fig8, h.Fig9, h.Fig10, h.Fig11,
	}
	for _, step := range steps {
		if err := step(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
