package bench

import (
	"runtime"
	"testing"

	"repro/mutls"
)

func ciConfig(w *Workload, cpus int) RunConfig {
	return RunConfig{
		CPUs:   cpus,
		Size:   w.CISize,
		Model:  w.DefaultModel,
		Timing: mutls.Virtual,
		Cost:   mutls.DefaultCostModel(),
	}
}

// Every workload must produce the sequential checksum under its default
// model — the integration test behind every figure.
func TestAllWorkloadsMatchSequential(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if err := Verify(w, ciConfig(w, 4)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The same with a single CPU (speculation starved) and many CPUs.
func TestWorkloadsAcrossCPUCounts(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, cpus := range []int{1, 2, 8} {
				if err := Verify(w, ciConfig(w, cpus)); err != nil {
					t.Fatalf("cpus=%d: %v", cpus, err)
				}
			}
		})
	}
}

// Every workload under every GlobalBuffer backend: the buffering
// organization may change performance but never the result — the shared
// sequential-equivalence suite of the backend ablation.
func TestWorkloadsAcrossBackends(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range mutls.Backends() {
				cfg := ciConfig(w, 4)
				cfg.Buffering = mutls.Buffering{Backend: backend}
				if err := Verify(w, cfg); err != nil {
					t.Fatalf("backend=%s: %v", backend, err)
				}
			}
		})
	}
}

// Every workload under every forking model: the result may be computed with
// less parallelism but never differently.
func TestWorkloadsAcrossModels(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, m := range []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed, mutls.MixedLinear} {
				cfg := ciConfig(w, 4)
				cfg.Model = m
				if err := Verify(w, cfg); err != nil {
					t.Fatalf("model=%v: %v", m, err)
				}
			}
		})
	}
}

// Forced rollbacks (the Figure 11 experiment) must never change results.
func TestWorkloadsUnderInjectedRollbacks(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, prob := range []float64{0.2, 1.0} {
				cfg := ciConfig(w, 4)
				cfg.RollbackProb = prob
				cfg.Seed = 42
				if err := Verify(w, cfg); err != nil {
					t.Fatalf("prob=%v: %v", prob, err)
				}
			}
		})
	}
}

// Real (wall clock) timing mode end to end.
func TestWorkloadsRealTiming(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := ciConfig(w, 2)
			cfg.Timing = mutls.Real
			if err := Verify(w, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Speculation must actually happen: with several CPUs each workload commits
// at least one speculative execution under its default model.
func TestWorkloadsActuallySpeculate(t *testing.T) {
	for _, w := range Everything() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			m, err := MeasureSpec(w, ciConfig(w, 8))
			if err != nil {
				t.Fatal(err)
			}
			if m.Summary.Commits == 0 {
				t.Fatalf("%s: no committed speculations (%d rollbacks)", w.Name, m.Summary.Rollbacks)
			}
		})
	}
}

// Speedup sanity under virtual timing: compute-intensive workloads must
// scale; memory-intensive ones must at least not slow down catastrophically.
func TestVirtualSpeedupSanity(t *testing.T) {
	for _, w := range []*Workload{X3P1, Mandelbrot} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := MeasureSeq(w, ciConfig(w, 1))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := MeasureSpec(w, ciConfig(w, 8))
			if err != nil {
				t.Fatal(err)
			}
			speedup := float64(seq.Runtime) / float64(spec.Runtime)
			if speedup < 2.0 {
				t.Fatalf("%s: speedup %.2f at 8 CPUs; compute benchmark must scale", w.Name, speedup)
			}
		})
	}
}

// matmult is the paper's only benchmark with real rollbacks (§V-B): verify
// they appear with enough CPUs, and that the others stay rollback-free.
func TestRollbackProfileMatchesPaper(t *testing.T) {
	m, err := MeasureSpec(MatMult, ciConfig(MatMult, 8))
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary.Rollbacks == 0 {
		t.Error("matmult: expected accumulation conflicts to cause rollbacks")
	}
	for _, w := range []*Workload{X3P1, NQueen, TSP, FFT} {
		mm, err := MeasureSpec(w, ciConfig(w, 8))
		if err != nil {
			t.Fatal(err)
		}
		if mm.Summary.Rollbacks != 0 {
			t.Errorf("%s: unexpected %d rollbacks (embarrassingly parallel per the paper)",
				w.Name, mm.Summary.Rollbacks)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("fft")
	if err != nil || w != FFT {
		t.Fatalf("ByName(fft) = %v, %v", w, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBenchmarkSets(t *testing.T) {
	if len(All) != 8 {
		t.Fatalf("Table II has 8 benchmarks, got %d", len(All))
	}
	if len(Extended) != 2 || len(Everything()) != 10 {
		t.Fatalf("extended set: %d extra, %d total; want 2 and 10",
			len(Extended), len(Everything()))
	}
	if len(ComputationIntensive()) != 3 || len(MemoryIntensive()) != 5 {
		t.Fatal("figure 3/4 benchmark sets wrong")
	}
	for _, w := range Everything() {
		if w.AmountOfData(w.PaperSize) == "" || w.Description == "" || w.Pattern == "" {
			t.Errorf("%s: incomplete Table II row", w.Name)
		}
	}
}

// TestMatmultRefusalStorm moves the CPU limit under running matmults, so
// that Spawn's refusals stop being monotone — a sub-product refused, the
// next one granted, a node's own thread spawning again after a sibling was
// turned down — which is what a loaded host does to a real-timing run.
// Every run must still leave C bit for bit as the sequential one does: its
// sub-products accumulate, so any pair run out of order shows in the
// unquantised checksum.
func TestMatmultRefusalStorm(t *testing.T) {
	const cpus = 4
	runs := 300
	if testing.Short() {
		runs = 100
	}
	cfg := ciConfig(MatMult, cpus)
	rt, err := mutls.New(cfg.options(MatMult))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var want uint64
	if _, err := rt.Run(func(th *mutls.Thread) { want = MatMult.Seq(th, cfg.Size) }); err != nil {
		t.Fatal(err)
	}
	rt.Recycle()

	stop := make(chan struct{})
	stormed := make(chan struct{})
	go func() {
		defer close(stormed)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.SetCPULimit(n % (cpus + 1))
			runtime.Gosched()
		}
	}()
	bad := 0
	for i := 0; i < runs; i++ {
		var got uint64
		if _, err := rt.Run(func(th *mutls.Thread) {
			got = MatMult.Spec(th, cfg.Size, SpecOptions{Model: mutls.Mixed})
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			bad++
		}
		rt.Recycle()
	}
	close(stop)
	<-stormed
	if bad > 0 {
		t.Fatalf("%d of %d runs under a moving CPU limit differ from the sequential checksum %#x", bad, runs, want)
	}
}
