// Package bench implements the paper's benchmark suite (Table II): 3x+1,
// mandelbrot and md (computation-intensive loops), bh (memory-intensive
// loop), fft and matmult (divide and conquer) and nqueen and tsp
// (depth-first search). Every workload exists in two forms, exactly like
// the paper's non-speculative/speculative function pairs: a sequential
// version that runs on the non-speculative thread alone, and a TLS version
// written against the public mutls API (For for the loop benchmarks, Tree
// for the recursive ones). Both return a checksum so the harness can verify
// that speculation preserved sequential semantics.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/stats"
	"repro/mutls"
)

// Size parameterizes a workload run. The meaning of the fields is
// workload-specific (documented on each workload). The JSON names appear
// in the wall-clock suite's machine-readable output.
type Size struct {
	N     int `json:"n"`               // primary problem size
	M     int `json:"m,omitempty"`     // secondary size (iterations, bodies, cities…)
	Steps int `json:"steps,omitempty"` // outer time steps, when applicable
}

// Workload is one Table II row plus its two implementations.
type Workload struct {
	Name         string            // Table II "Benchmark"
	Description  string            // Table II "Description"
	Pattern      string            // Table II "Pattern"
	Language     string            // Table II "Language"
	Class        string            // "computation" or "memory" (Table II grouping)
	AmountOfData func(Size) string // Table II "Amount of Data"

	// DefaultModel is the forking model the paper uses for the benchmark
	// (in-order for the loop benchmarks, mixed for tree-form recursion).
	DefaultModel mutls.Model

	// CISize finishes in well under a second; PaperSize matches Table II.
	CISize    Size
	PaperSize Size

	// HeapBytes sizes the simulated heap for the given problem size.
	HeapBytes func(Size) int

	// Seq runs the benchmark without speculation and returns a checksum.
	Seq func(t *mutls.Thread, s Size) uint64
	// Spec runs the TLS version under the given speculation options.
	Spec func(t *mutls.Thread, s Size, opts SpecOptions) uint64
}

// SpecOptions parameterizes a workload's TLS version: the forking model.
type SpecOptions struct {
	Model mutls.Model
}

// All lists the benchmarks in Table II order.
var All = []*Workload{X3P1, Mandelbrot, MD, BH, FFT, MatMult, NQueen, TSP}

// Extended lists the workload shapes beyond the paper's Table II: the
// stage-parallel pipeline (stencil) and the speculative float reduction
// (floatsum). They run the same verification suites as the Table II set
// but stay out of the paper's figures, which reproduce Table II exactly.
var Extended = []*Workload{Stencil, FloatSum}

// Everything returns All plus Extended — the full verification surface.
func Everything() []*Workload {
	return append(append([]*Workload{}, All...), Extended...)
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range Everything() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// ComputationIntensive returns the Figure 3 benchmark set.
func ComputationIntensive() []*Workload { return []*Workload{X3P1, Mandelbrot, MD} }

// MemoryIntensive returns the Figure 4 benchmark set.
func MemoryIntensive() []*Workload { return []*Workload{FFT, MatMult, NQueen, TSP, BH} }

// RunConfig bundles everything needed to execute a workload run,
// expressed in public mutls types.
type RunConfig struct {
	CPUs         int
	Size         Size
	Model        mutls.Model
	Timing       mutls.TimingMode
	Cost         mutls.CostModel
	RollbackProb float64
	Seed         uint64
	// Buffering selects the GlobalBuffer backend; zero selects the gbuf
	// default (bitmap). An explicit "openaddr" gets the suite's sizing for
	// it (2^16 words, 256 overflow slots) where the fields are zero.
	Buffering mutls.Buffering
	// Faults is the fault-injection plan MeasureSpec's run carries in its
	// context (the chaos harness); nil injects nothing.
	Faults *faultinject.Plan
	// SpecDeadline arms the runaway-speculation watchdog; zero disables.
	SpecDeadline time.Duration
}

// options builds the mutls runtime options for a workload.
func (cfg RunConfig) options(w *Workload) mutls.Options {
	buf := cfg.Buffering
	if buf.Backend == "openaddr" {
		if buf.LogWords == 0 {
			buf.LogWords = 16
		}
		if buf.OverflowCap == 0 {
			buf.OverflowCap = 256
		}
	}
	return mutls.Options{
		CPUs:         cfg.CPUs,
		Timing:       cfg.Timing,
		Cost:         cfg.Cost,
		StaticBytes:  1 << 16,
		HeapBytes:    w.HeapBytes(cfg.Size),
		StackBytes:   1 << 16,
		Buffering:    buf,
		RegSlots:     160,
		StackSlots:   32,
		RollbackProb: cfg.RollbackProb,
		Seed:         cfg.Seed,
		SpecDeadline: cfg.SpecDeadline,
	}
}

// Measurement is the result of one run.
type Measurement struct {
	Runtime  mutls.Cost
	Checksum uint64
	Summary  *stats.Summary
}

// MeasureSeq runs the sequential version on a 1-CPU runtime and returns the
// paper's Ts.
func MeasureSeq(w *Workload, cfg RunConfig) (Measurement, error) {
	c := cfg
	c.CPUs = 1
	rt, err := mutls.New(c.options(w))
	if err != nil {
		return Measurement{}, err
	}
	defer rt.Close()
	var sum uint64
	ts, err := rt.Run(func(t *mutls.Thread) { sum = w.Seq(t, cfg.Size) })
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Runtime: ts, Checksum: sum, Summary: rt.Stats()}, nil
}

// MeasureSpec runs the TLS version and returns the paper's TN plus the
// statistics summary for the efficiency figures.
func MeasureSpec(w *Workload, cfg RunConfig) (Measurement, error) {
	rt, err := mutls.New(cfg.options(w))
	if err != nil {
		return Measurement{}, err
	}
	defer rt.Close()
	opts := SpecOptions{Model: cfg.Model}
	ctx := faultinject.NewContext(context.Background(), cfg.Faults)
	var sum uint64
	tn, err := rt.RunCtx(ctx, func(t *mutls.Thread) { sum = w.Spec(t, cfg.Size, opts) })
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Runtime: tn, Checksum: sum, Summary: rt.Stats()}, nil
}

// Verify runs both versions and fails if the checksums diverge — the
// integration safety check behind every figure.
func Verify(w *Workload, cfg RunConfig) error {
	seq, err := MeasureSeq(w, cfg)
	if err != nil {
		return fmt.Errorf("%s sequential: %w", w.Name, err)
	}
	spec, err := MeasureSpec(w, cfg)
	if err != nil {
		return fmt.Errorf("%s speculative: %w", w.Name, err)
	}
	if seq.Checksum != spec.Checksum {
		return fmt.Errorf("%s: speculative checksum %#x != sequential %#x (model %v, cpus %d)",
			w.Name, spec.Checksum, seq.Checksum, cfg.Model, cfg.CPUs)
	}
	return nil
}

// mix folds a value into a running checksum (order-independent for
// commutative accumulation, which all workloads use).
func mix(sum, v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	return sum + v
}
