package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/bench"
	"repro/mutls"
)

// This file is the curated wall-clock suite (ROADMAP: report speedups on
// real hardware, not only the modelled machine). Unlike the figure
// harness — which reruns the paper's experiments on the virtual cost model
// — the wall-clock suite runs the dense-sweep kernels under Real timing
// with fixed problem sizes, warmup iterations and a host-parallelism
// sweep, and emits machine-readable JSON (the committed BENCH_wallclock.json
// baseline) so regressions in the per-access software overhead the bulk
// paths remove are visible in nanoseconds.

// WallclockConfig parameterizes the suite.
type WallclockConfig struct {
	// Quick selects the CI sizes and a short axis (the -quick smoke).
	Quick bool
	// CPUAxis is the host-parallelism sweep in total CPUs (the paper's
	// x-axis convention: the non-speculative thread's CPU counts). Zero
	// selects {1, 2, 4, 8} clipped to the host's core count.
	CPUAxis []int
	// Warmup is the number of unmeasured runs per point (zero selects 1).
	Warmup int
	// Reps is the number of measured runs per point, of which the minimum
	// is reported (zero selects 3; -quick uses 2).
	Reps int
}

// wallSizes are the suite's fixed problem sizes: large enough that a run
// spends its time in the kernels (not fork/join), small enough that the
// full sweep finishes in tens of seconds on a laptop.
var wallSizes = map[string]bench.Size{
	"mandelbrot": {N: 192, M: 3000},
	"md":         {N: 160, Steps: 6},
	"fft":        {N: 1 << 16},
	"matmult":    {N: 128},
	"stencil":    {N: 1 << 15, Steps: 6},
	"floatsum":   {N: 1 << 20},
}

// wallWorkloads is the dense-sweep subset rebuilt on the bulk accessors,
// plus the pipeline and float-reduction shapes.
func wallWorkloads() []*bench.Workload {
	return []*bench.Workload{
		bench.Mandelbrot, bench.MD, bench.FFT, bench.MatMult,
		bench.Stencil, bench.FloatSum,
	}
}

// WallclockHost describes the machine a baseline was measured on.
type WallclockHost struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// WallclockPoint is one (workload, cpus) measurement.
type WallclockPoint struct {
	// CPUs is the axis value (total CPUs including the non-speculative
	// thread's).
	CPUs int `json:"cpus"`
	// NS is the minimum speculative critical-path runtime over Reps runs,
	// in nanoseconds.
	NS int64 `json:"ns"`
	// Speedup is SeqNS / NS.
	Speedup float64 `json:"speedup"`
	// Commits/Rollbacks summarize the speculation activity of the
	// reported (minimum) run.
	Commits   int `json:"commits"`
	Rollbacks int `json:"rollbacks"`
	// HandoffParks/HandoffSpinHits are the join protocol's hand-off
	// counters of that run: waits that parked a goroutine against waits a
	// bounded spin covered. Parks well below commits mean fork/joins stay
	// out of the kernel.
	HandoffParks    int64 `json:"handoff_parks"`
	HandoffSpinHits int64 `json:"handoff_spin_hits"`
}

// WallclockResult is one workload's sweep.
type WallclockResult struct {
	Name string     `json:"name"`
	Size bench.Size `json:"size"`
	// SeqNS is the minimum sequential runtime over Reps runs.
	SeqNS  int64            `json:"seq_ns"`
	Points []WallclockPoint `json:"points"`
}

// WallclockReport is the suite's JSON document.
type WallclockReport struct {
	Suite  string        `json:"suite"`
	Quick  bool          `json:"quick"`
	Warmup int           `json:"warmup"`
	Reps   int           `json:"reps"`
	Host   WallclockHost `json:"host"`
	// Provenance states what the baseline is good for, derived from
	// host.num_cpu at measurement time: a single-core host serializes the
	// worker goroutines, so its numbers validate runtime overhead only,
	// never parallel speedup.
	Provenance string            `json:"provenance"`
	Workloads  []WallclockResult `json:"workloads"`
}

// defaults resolves the config against the host.
func (c WallclockConfig) defaults() WallclockConfig {
	if c.Warmup <= 0 {
		c.Warmup = 1
	}
	if c.Reps <= 0 {
		c.Reps = 3
		if c.Quick {
			c.Reps = 2
		}
	}
	if len(c.CPUAxis) == 0 {
		axis := []int{1, 2, 4, 8}
		if c.Quick {
			axis = []int{1, 2, 4}
		}
		c.CPUAxis = ClipAxis(axis, runtime.GOMAXPROCS(0))
	}
	return c
}

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

// Wallclock runs the suite and writes the JSON report to out.
func (h *Harness) Wallclock(out io.Writer, cfg WallclockConfig) error {
	report, err := h.MeasureWallclock(cfg)
	if err != nil {
		return err
	}
	return WriteWallclock(out, report)
}

// WriteWallclock encodes a report as the suite's JSON document.
func WriteWallclock(out io.Writer, report *WallclockReport) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// MeasureWallclock runs the suite and returns the report (the programmatic
// form of Wallclock, for callers that want to compare before serializing).
func (h *Harness) MeasureWallclock(cfg WallclockConfig) (*WallclockReport, error) {
	cfg = cfg.defaults()
	report := WallclockReport{
		Suite:  "mutls-wallclock",
		Quick:  cfg.Quick,
		Warmup: cfg.Warmup,
		Reps:   cfg.Reps,
		Host: WallclockHost{
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}
	if report.Host.NumCPU > 1 {
		report.Provenance = fmt.Sprintf(
			"measured on a %d-core host: speedups reflect real parallelism up to that width",
			report.Host.NumCPU)
	} else {
		report.Provenance = "measured on a 1-core host: validates runtime overhead only, not parallel speedup"
	}
	for _, w := range wallWorkloads() {
		res, err := h.wallclockWorkload(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("wallclock %s: %w", w.Name, err)
		}
		report.Workloads = append(report.Workloads, res)
	}
	return &report, nil
}

func (h *Harness) wallclockWorkload(w *bench.Workload, cfg WallclockConfig) (WallclockResult, error) {
	size := wallSizes[w.Name]
	if cfg.Quick || size == (bench.Size{}) {
		size = w.CISize
	}
	res := WallclockResult{Name: w.Name, Size: size}

	runCfg := func(cpus int) bench.RunConfig {
		return bench.RunConfig{
			CPUs:      cpus - 1, // the axis counts the non-speculative CPU
			Size:      size,
			Model:     w.DefaultModel,
			Timing:    mutls.Real,
			Buffering: h.cfg.Buffering,
		}
	}

	// Sequential baseline: warmup, then best-of-Reps.
	var seqSum uint64
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := bench.MeasureSeq(w, runCfg(1)); err != nil {
			return res, err
		}
	}
	for i := 0; i < cfg.Reps; i++ {
		m, err := bench.MeasureSeq(w, runCfg(1))
		if err != nil {
			return res, err
		}
		seqSum = m.Checksum
		if res.SeqNS == 0 || m.Runtime < res.SeqNS {
			res.SeqNS = m.Runtime
		}
	}

	for _, cpus := range cfg.CPUAxis {
		for i := 0; i < cfg.Warmup; i++ {
			if _, err := bench.MeasureSpec(w, runCfg(cpus)); err != nil {
				return res, err
			}
		}
		pt := WallclockPoint{CPUs: cpus}
		for i := 0; i < cfg.Reps; i++ {
			m, err := bench.MeasureSpec(w, runCfg(cpus))
			if err != nil {
				return res, err
			}
			if m.Checksum != seqSum {
				return res, fmt.Errorf("checksum mismatch at %d CPUs (speculative %#x != sequential %#x)",
					cpus, m.Checksum, seqSum)
			}
			if pt.NS == 0 || m.Runtime < pt.NS {
				pt.NS = m.Runtime
				pt.Commits = m.Summary.Commits
				pt.Rollbacks = m.Summary.Rollbacks
				pt.HandoffParks = m.Summary.HandoffParks
				pt.HandoffSpinHits = m.Summary.HandoffSpinHits
			}
		}
		pt.Speedup = float64(res.SeqNS) / float64(pt.NS)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
