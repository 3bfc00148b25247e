package mutls_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/raceflag"
	"repro/mutls"
)

// handoffRuntime is a real-timing runtime with one speculative CPU — the
// two-thread shape every hand-off measurement here is about.
func handoffRuntime(tb testing.TB, tweak func(*mutls.Options)) *mutls.Runtime {
	tb.Helper()
	opts := mutls.Options{CPUs: 1, Timing: mutls.Real}
	if tweak != nil {
		tweak(&opts)
	}
	rt, err := mutls.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// BenchmarkPipelineToken is one token through a two-stage pipeline with
// empty stage bodies: predict, fork, validate the prediction, join, observe
// — what Pipeline adds to a token before the stages do any work. The
// committed path must not allocate. The points carry no body keys
// (PipelineUnkeyed): under them Pipeline would rightly stop forking stages
// that do nothing, and this would time a refusal.
func BenchmarkPipelineToken(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := handoffRuntime(b, nil)
	stage := func(c *mutls.Thread, token int, in uint64) uint64 { return in + 1 }
	b.ReportAllocs()
	var out uint64
	if _, err := rt.Run(func(t *mutls.Thread) {
		// The first tokens calibrate the predictor and size the runtime's
		// reusable buffers.
		mutls.PipelineUnkeyed(t, 64, 0, mutls.PipelineOptions{Predictor: mutls.Stride}, stage, stage)
		b.ResetTimer()
		out = mutls.PipelineUnkeyed(t, b.N, 0, mutls.PipelineOptions{Predictor: mutls.Stride}, stage, stage)
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
	if out != 2*uint64(b.N) {
		b.Fatalf("pipeline live-out %d, want %d", out, 2*b.N)
	}
	s := rt.Stats()
	if s.Commits < b.N-2 {
		b.Fatalf("%d of %d tokens forked and committed: this timed something else", s.Commits, b.N)
	}
	b.ReportMetric(float64(s.HandoffParks)/float64(b.N), "parks/op")
}

// TestPipelineTokenDoesNotAllocate pins the per-token allocations of the
// committed path at zero (the few a Pipeline call makes for itself do not
// scale with the token count).
func TestPipelineTokenDoesNotAllocate(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("allocation count needs a quiet, uninstrumented run")
	}
	res := testing.Benchmark(BenchmarkPipelineToken)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("a pipeline token allocates %d objects", a)
	}
}

// hostParallelism times a fixed spin on one goroutine, then on two at once:
// 2.0 means the host gave this process two free cores for the probe, 1.0
// that it ran them one after the other (another test binary, a noisy
// neighbour).
func hostParallelism() float64 {
	spin := func() time.Duration {
		start := time.Now()
		x := 1.0
		for i := 0; i < 400_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		spinSink = x
		return time.Since(start)
	}
	one := spin()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); spin() }()
	}
	wg.Wait()
	return 2 * float64(one) / float64(time.Since(start))
}

var spinSink float64

// spin is deterministic busy work of n dependent multiply-adds, folded into
// the stage's live-out so the compiler keeps it (it adds 0).
func spin(n int, in uint64) uint64 {
	x := in | 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return in + 1 + x>>63<<63&^x
}

// spinsPerMicrosecond times spin on this host.
func spinsPerMicrosecond() int {
	const n = 2_000_000
	start := time.Now()
	spinSink = float64(spin(n, 1))
	return max(1, int(n*time.Microsecond/time.Since(start)))
}

// TestSpinPipelineRarelyParks is the hand-off's end-to-end claim, on a
// pipeline whose forks pay: two inline stages of 50 us against a speculated
// one of 100 us, a fork and a join every 100 us with both threads busy in
// between. On two procs fewer than one join in ten may park a goroutine.
// (The stencil pipeline used to carry this claim; its stages are too small
// to be worth a fork — see TestStencilPipelineStopsForking.)
func TestSpinPipelineRarelyParks(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two procs")
	}
	if raceflag.Enabled {
		t.Skip("the race detector stretches the hand-off past any spin budget")
	}
	const tokens = 400
	perUS := spinsPerMicrosecond()
	stage := func(us int) mutls.Stage {
		return func(_ *mutls.Thread, _ int, in uint64) uint64 { return spin(us*perUS, in) }
	}
	stages := []mutls.Stage{stage(50), stage(50), stage(100)}
	rt := handoffRuntime(t, nil)
	// Parking is a property of the host as much as of the runtime: when the
	// two threads do not each have a core (go test runs package binaries
	// side by side), every wait outlasts the budget, and parking is then
	// the right thing to do. Only runs bracketed by two clean parallelism
	// probes count. A probe can be clean around a run that was not, so the
	// verdict is the median of three clean runs.
	const wantClean = 3
	var shares []float64
	var probes []string
	joins := 0
	for attempt := 0; attempt < 32 && len(shares) < wantClean; attempt++ {
		before := hostParallelism()
		var out uint64
		if _, err := rt.Run(func(th *mutls.Thread) {
			out = mutls.Pipeline(th, tokens, 0, mutls.PipelineOptions{Predictor: mutls.Stride}, stages...)
		}); err != nil {
			t.Fatal(err)
		}
		if out != 3*tokens {
			t.Fatalf("pipeline live-out %d, want %d", out, 3*tokens)
		}
		s := rt.Stats()
		rt.Recycle()
		joins = s.Commits + s.Rollbacks
		after := hostParallelism()
		clean := before >= 1.6 && after >= 1.6
		if joins < tokens/2 {
			// A busy host refuses forks (no free proc, or a guard that
			// rightly judges the fork not worth it there): only a run with
			// two cores on both sides of it says the stage stopped forking.
			if clean {
				t.Fatalf("%d joins in %d tokens: a stage worth 100 us stopped forking (%+v)", joins, tokens, s.PerPoint)
			}
			probes = append(probes, fmt.Sprintf("%.2f/%.2f: %d joins", before, after, joins))
			continue
		}
		share := float64(s.HandoffParks) / float64(joins)
		probes = append(probes, fmt.Sprintf("%.2f/%.2f: %.0f%%", before, after, 100*share))
		if clean {
			shares = append(shares, share)
		}
	}
	readings := fmt.Sprintf("host parallelism before/after each run and its park share: %v", probes)
	if len(shares) < wantClean {
		t.Skipf("the host gave this process two free cores on %d of %d runs, need %d; %s", len(shares), len(probes), wantClean, readings)
	}
	sort.Float64s(shares)
	median := shares[len(shares)/2]
	t.Logf("median of %d clean runs parked on %.1f%% of %d joins; %s", len(shares), 100*median, joins, readings)
	if median >= 0.10 {
		t.Fatalf("median run parked on %.0f%% of %d joins, want under 10%%", 100*median, joins)
	}
}

// TestStencilPipelineForksOneBalancedGroup is loop-memory's claim. With one
// speculative CPU the stencil's stages — two 3-point passes of about 6 us
// and a 3 us residual fold at the benchmark's size (2 vCPUs, go1.24) — are cut
// {pass 1} | {pass 2 + fold}, a group worth its fork where the fold alone,
// all that forking stages last-first could off-load, was not. From the
// second run on, at least 600 of a run's 792 fork attempts commit the group,
// none rolls back, the fold never forks on its own point, and the checksum
// is the sequential one. The host has to give the two threads a core each:
// only runs bracketed by two clean parallelism probes count, and the
// verdict is the median of three (see TestSpinPipelineRarelyParks).
func TestStencilPipelineForksOneBalancedGroup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two procs")
	}
	if raceflag.Enabled {
		t.Skip("the race detector stretches a stage's memory traffic more than its fork/join")
	}
	size := bench.Size{N: 32768, Steps: 24}
	rt := handoffRuntime(t, func(o *mutls.Options) {
		o.HeapBytes = bench.Stencil.HeapBytes(size)
		o.RegSlots = 160
	})
	var want, got uint64
	if _, err := rt.Run(func(th *mutls.Thread) { want = bench.Stencil.Seq(th, size) }); err != nil {
		t.Fatal(err)
	}
	rt.Recycle()
	const wantClean = 3
	var clean []*mutls.Summary
	var probes []string
	for run := 1; run <= 24 && len(clean) < wantClean; run++ {
		before := hostParallelism()
		if _, err := rt.Run(func(th *mutls.Thread) {
			got = bench.Stencil.Spec(th, size, bench.SpecOptions{Model: bench.Stencil.DefaultModel})
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: checksum %#x, want %#x", run, got, want)
		}
		s := rt.Stats()
		rt.Recycle()
		after := hostParallelism()
		probes = append(probes, fmt.Sprintf("%.2f/%.2f: %d commits", before, after, s.PerPoint[0].Commits))
		if run > 1 && before >= 1.6 && after >= 1.6 {
			clean = append(clean, s)
		}
	}
	readings := fmt.Sprintf("host parallelism before/after each run and the group's commits: %v", probes)
	if len(clean) < wantClean {
		t.Skipf("the host gave this process two free cores on %d runs, need %d; %s", len(clean), wantClean, readings)
	}
	sort.Slice(clean, func(i, j int) bool { return clean[i].PerPoint[0].Commits < clean[j].PerPoint[0].Commits })
	s := clean[len(clean)/2]
	group, fold := s.PerPoint[0], s.PerPoint[1]
	t.Logf("median clean run: group %+v, fold %+v; %s", group, fold, readings)
	if group.Commits < 600 || s.Rollbacks != 0 || fold.Commits+fold.Rollbacks != 0 {
		t.Fatalf("median clean run: the group committed %d of 792 attempts, %d rollbacks, the fold forked %d times alone: want at least 600, none, none",
			group.Commits, s.Rollbacks, fold.Commits+fold.Rollbacks)
	}
}
