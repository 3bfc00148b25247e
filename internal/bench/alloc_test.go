package bench

import (
	"runtime"
	"testing"

	"repro/internal/raceflag"
	"repro/mutls"
)

// perRun runs w at size on a virtual-timing runtime with cpus speculative
// CPUs, Spec under w's default model or Seq, and returns a run's mean heap
// allocations, bytes and collections after a warm-up run.
func perRun(t *testing.T, w *Workload, size Size, cpus int, spec bool) (allocs, bytes, gcs float64) {
	t.Helper()
	if testing.Short() || raceflag.Enabled {
		t.Skip("allocation count needs a quiet, uninstrumented run")
	}
	cfg := ciConfig(w, cpus)
	cfg.Size = size
	rt, err := mutls.New(cfg.options(w))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	run := func(th *mutls.Thread) {
		if spec {
			w.Spec(th, size, SpecOptions{Model: w.DefaultModel})
		} else {
			w.Seq(th, size)
		}
	}
	const runs = 10
	var before, after runtime.MemStats
	for i := -1; i < runs; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if _, err := rt.Run(run); err != nil {
			t.Fatal(err)
		}
		rt.Recycle()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs,
		float64(after.NumGC-before.NumGC) / runs
}

// TestStencilAllocationsDoNotGrowWithTokens: the stencil makes its two
// stage lists and its per-rank scratch once a run, so doubling the sweeps of
// a CI-size run adds no allocation to Seq (the mean may move by a fraction:
// the count is the process's; when they were made every sweep, each added
// seven). Spec drives the same lists through Pipeline, whose allocations
// follow the schedule — a region for each group it forks, again after a
// rollback — so it adds fewer allocations than it adds tokens.
func TestStencilAllocationsDoNotGrowWithTokens(t *testing.T) {
	for _, spec := range []bool{false, true} {
		allocs := func(steps int) float64 {
			a, _, _ := perRun(t, Stencil, Size{N: Stencil.CISize.N, Steps: steps}, 2, spec)
			return a
		}
		two, four := allocs(2), allocs(4)
		t.Logf("spec %v: %.0f allocations at 2 sweeps, %.0f at 4", spec, two, four)
		below := 1.0
		if spec {
			below = 2 * stencilTokens
		}
		if four-two >= below {
			t.Fatalf("spec %v: two more sweeps made %.1f more allocations (%.0f at 2 sweeps, %.0f at 4), want fewer than %.0f",
				spec, four-two, two, four, below)
		}
	}
}

// TestPipelineCallStateStaysSmall: a Pipeline call keeps its state on the
// stack or in one allocation and makes a region only for a group it forks,
// so a loop-memory-sized stencil run (24 Pipeline calls, one speculative
// CPU) allocates within 100 objects of the Seq run that drives the same
// stages inline.
func TestPipelineCallStateStaysSmall(t *testing.T) {
	size := Size{N: 32768, Steps: 24}
	seq, _, _ := perRun(t, Stencil, size, 1, false)
	spec, _, _ := perRun(t, Stencil, size, 1, true)
	t.Logf("Seq %.0f allocations, Spec %.0f", seq, spec)
	if spec-seq > 100 {
		t.Fatalf("Spec made %.0f allocations, %.0f more than Seq's %.0f", spec, spec-seq, seq)
	}
}

// TestFFTWorksInPerRankScratch: fft's prologue, combines and checksum work
// in one scratch per rank, so a tree-mixed-sized run (32 768 points, one
// speculative CPU) allocates a few dozen objects and about one buffer of
// the two arrays per rank that works.
func TestFFTWorksInPerRankScratch(t *testing.T) {
	size := Size{N: 32768}
	for _, tc := range []struct {
		spec      bool
		maxAllocs float64
		maxMB     float64
	}{{false, 15, 0.6}, {true, 70, 1.2}} {
		allocs, bytes, gcs := perRun(t, FFT, size, 1, tc.spec)
		t.Logf("spec %v: %.0f allocations, %.2f MB, %.2f GCs a run", tc.spec, allocs, bytes/1e6, gcs)
		if allocs > tc.maxAllocs || bytes > tc.maxMB*1e6 {
			t.Errorf("spec %v: %.0f allocations and %.2f MB a run, want at most %.0f and %.1f MB",
				tc.spec, allocs, bytes/1e6, tc.maxAllocs, tc.maxMB)
		}
	}
}
