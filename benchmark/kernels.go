package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/vclock"
	"repro/mutls"
)

// kernelSpec is one of the four kernel workloads: a bench workload at a
// fixed size, its plain-Go twin, and what the runtime is told beyond the
// protocol options.
type kernelSpec struct {
	name      string
	w         *bench.Workload
	size      bench.Size
	native    func(bench.Size) uint64
	forceRoll float64 // Options.RollbackProb
	// chunkSpans adds, in traced runs, a rep that drives mutls.For directly
	// with the benchmark's own mandelbrot row body, one span per chunk.
	chunkSpans bool
}

var kernelSpecs = []kernelSpec{
	{name: "loop-compute", w: bench.Mandelbrot, size: bench.Size{N: 192, M: 3000},
		native: nativeMandelbrot, chunkSpans: true},
	{name: "loop-memory", w: bench.Stencil, size: bench.Size{N: 32768, Steps: 24},
		native: nativeStencil},
	{name: "tree-mixed", w: bench.FFT, size: bench.Size{N: 32768},
		native: nativeFFT},
	{name: "loop-rollback", w: bench.Mandelbrot, size: bench.Size{N: 192, M: 3000},
		native: nativeMandelbrot, forceRoll: 0.25},
}

// kernelOptions is what bench.RunConfig resolves to for the suite's
// wall-clock runs, at the protocol width.
func kernelOptions(spec kernelSpec, size bench.Size, cfg Config) mutls.Options {
	return mutls.Options{
		CPUs:         cfg.Shape.Total - 1,
		Timing:       mutls.Real,
		CollectStats: true,
		StaticBytes:  1 << 16,
		StackBytes:   1 << 16,
		HeapBytes:    spec.w.HeapBytes(size),
		Buffering:    mutls.Buffering{LogWords: 16, OverflowCap: 256},
		RegSlots:     160,
		StackSlots:   32,
		RollbackProb: spec.forceRoll,
		Seed:         cfg.Seed,
	}
}

// triplet is one native -> seq -> spec round, in milliseconds. The three
// run back to back so that host drift cancels in their ratios.
type triplet struct {
	native, seq, spec float64
	traced            bool
}

type kernelBlock struct {
	trips     []triplet
	summaries []*mutls.Summary // rt.Stats() after each traced spec rep
	overlap   []float64        // chunk overlap share per chunk-span rep
	gapsUS    []float64        // same-CPU gaps between chunks, all reps
}

type kernelRun struct {
	spec   kernelSpec
	size   bench.Size
	cfg    Config
	rt     *mutls.Runtime
	want   uint64
	tracer *Tracer

	blocks    []kernelBlock
	trips     int // triplets so far; odd ones are traced in a traced run
	attempted int
	failed    int
}

// check counts one verified output.
func (k *kernelRun) check(sum uint64, err error) {
	k.attempted++
	if err != nil || sum != k.want {
		k.failed++
	}
}

// setUp builds the runtime, takes the reference checksum from Workload.Seq
// and runs one warm-up triplet. Everything in here is setup_s.
func (k *kernelRun) setUp() error {
	tr := k.tracer
	root := tr.Start("setup", 0, 0)
	defer tr.End(root)

	id := tr.Start("mutls.New", root, 0)
	rt, err := mutls.New(kernelOptions(k.spec, k.size, k.cfg))
	tr.End(id)
	if err != nil {
		return err
	}
	k.rt = rt

	id = tr.Start("reference", root, 0)
	_, err = rt.Run(func(t *mutls.Thread) { k.want = k.spec.w.Seq(t, k.size) })
	rt.Recycle()
	tr.End(id)
	if err != nil {
		return fmt.Errorf("%s reference run: %w", k.spec.name, err)
	}
	if k.cfg.CorruptRef {
		k.want ^= 1
	}

	// Warm-up reps are verified like any other but are not results.
	id = tr.Start("warmup", root, 0)
	k.triplet(nil, &kernelBlock{})
	tr.End(id)
	return nil
}

// runRep times one rt.Run of fn from outside, verifies its checksum, and
// recycles the runtime. With a tracer it also reads rt.Stats() at the same
// boundary.
func (k *kernelRun) runRep(tr *Tracer, parent int, name string, fn func(*mutls.Thread) uint64) (run time.Duration, st *mutls.Summary) {
	var sum uint64
	id := tr.Start(name+".run", parent, k.trips)
	start := time.Now()
	_, err := k.rt.Run(func(t *mutls.Thread) { sum = fn(t) })
	run = time.Since(start)
	tr.End(id)
	k.check(sum, err)

	if tr != nil {
		id = tr.Start(name+".stats", parent, k.trips)
		st = k.rt.Stats()
		tr.End(id)
	}
	id = tr.Start(name+".recycle", parent, k.trips)
	k.rt.Recycle()
	tr.End(id)
	return run, st
}

// triplet runs native -> seq -> spec once and files the result in b.
func (k *kernelRun) triplet(tr *Tracer, b *kernelBlock) {
	k.trips++
	root := tr.Start("triplet", 0, k.trips)
	defer tr.End(root)

	id := tr.Start("native", root, k.trips)
	start := time.Now()
	sum := k.spec.native(k.size)
	nat := time.Since(start)
	tr.End(id)
	k.check(sum, nil)

	seq, _ := k.runRep(tr, root, "seq", func(t *mutls.Thread) uint64 {
		return k.spec.w.Seq(t, k.size)
	})
	opts := bench.SpecOptions{Model: k.spec.w.DefaultModel}
	spec, st := k.runRep(tr, root, "spec", func(t *mutls.Thread) uint64 {
		return k.spec.w.Spec(t, k.size, opts)
	})
	b.trips = append(b.trips, triplet{native: ms(nat), seq: ms(seq), spec: ms(spec), traced: tr != nil})
	if st != nil {
		b.summaries = append(b.summaries, st)
	}
	if tr != nil && k.spec.chunkSpans {
		k.chunkRep(tr, root, b)
	}
}

// chunkRep renders the same image through mutls.For with the benchmark's
// own row body, each chunk wrapped in a span that carries the executing
// rank, and files how much the chunks overlapped.
func (k *kernelRun) chunkRep(tr *Tracer, parent int, b *kernelBlock) {
	n, maxIter := k.size.N, k.size.M
	chunks := mutls.ChunkPolicy{MaxChunks: 64}.Chunks(n)
	first := tr.Len()
	k.runRep(tr, parent, "for", func(t *mutls.Thread) uint64 {
		img := t.Alloc(8 * n * n)
		defer t.Free(img)
		mutls.For(t, chunks, mutls.ForOptions{Model: mutls.InOrder}, func(c *mutls.Thread, idx int) {
			//lint:allow EFFECT002,EFFECT003,EFFECT004 the span is the measurement: its lock is never held across a poll, and a squashed chunk's span stays open and is dropped below
			id := tr.Start("chunk", parent, k.trips)
			row := make([]int64, n)
			for y := idx; y < n; y += chunks {
				mandelRow(row, y, n, maxIter)
				c.StoreInt64s(img+mutls.Addr(8*y*n), row)
				c.CheckPoint()
			}
			//lint:allow EFFECT002,EFFECT003,EFFECT004 closes the span opened above
			tr.EndRank(id, int(c.Rank()))
		})
		sum := uint64(0)
		row := make([]int64, n)
		for y := 0; y < n; y++ {
			t.LoadInt64s(img+mutls.Addr(8*y*n), row)
			for _, v := range row {
				sum = mix(sum, uint64(v))
			}
		}
		return sum
	})
	var spans []Span
	for _, s := range tr.Since(first) {
		// A chunk squashed at a poll never reaches EndRank.
		if s.Name == "chunk" && s.EndNS > 0 {
			spans = append(spans, s)
		}
	}
	share, gaps := chunkOverlap(spans)
	b.overlap = append(b.overlap, share)
	b.gapsUS = append(b.gapsUS, gaps...)
}

// block runs triplets for about blockTarget (two, in a quick run, so that a
// traced one has a traced and an untraced triplet).
func (k *kernelRun) block(int) time.Duration {
	var b kernelBlock
	start := time.Now()
	for {
		var tr *Tracer
		if k.trips%2 == 1 {
			tr = k.tracer // every other triplet of a traced run
		}
		k.triplet(tr, &b)
		if (k.cfg.Quick && len(b.trips) == 2) || (!k.cfg.Quick && time.Since(start) >= blockTarget) {
			k.blocks = append(k.blocks, b)
			return time.Since(start)
		}
	}
}

// runKernel is one kernel workload, untraced (end-to-end metrics) or traced
// (layer metrics).
func runKernel(spec kernelSpec, cfg Config, gate *Gate) (*Outcome, error) {
	size := spec.size
	if cfg.Quick {
		size = spec.w.CISize
	}
	k := &kernelRun{spec: spec, size: size, cfg: cfg}
	if cfg.Trace {
		k.tracer = newTracer()
	}

	setups, err := cfg.timeSetUps(k.setUp, func() error { k.rt.Close(); return nil })
	if err != nil {
		return nil, err
	}
	defer k.rt.Close()

	gate.WarmUp(hostWarmUp)
	run := gate.Measure(cfg.measureTime(), cfg.Quick, k.block)

	// The timings that are metrics come from untraced triplets only; in a
	// traced run those alternate with the traced ones.
	var nat, seq, spc, specTraced, overlap, gaps []float64
	var sums []*mutls.Summary
	for i, b := range k.blocks {
		if !run.Use[i] {
			continue
		}
		for _, t := range b.trips {
			if t.traced {
				specTraced = append(specTraced, t.spec)
				continue
			}
			nat = append(nat, t.native)
			seq = append(seq, t.seq)
			spc = append(spc, t.spec)
		}
		sums = append(sums, b.summaries...)
		overlap = append(overlap, b.overlap...)
		gaps = append(gaps, b.gapsUS...)
	}

	out := newOutcome(run, k.attempted, k.failed)
	out.Dists["native_ms"] = summarize(nat)
	out.Dists["seq_ms"] = summarize(seq)
	out.Dists["spec_ms"] = summarize(spc)
	out.Dists["setup_s"] = summarize(setups)

	m := out.Metrics
	m["setup_s"] = median(setups)
	m["speedup"] = ratioMedian(seq, spc)
	m["seq_ms"] = median(seq)
	m["spec_ms"] = median(spc)
	m["abs_speedup"] = ratioMedian(nat, spc)
	m["bench.native_ms"] = median(nat)
	m["bench.seq_tax_x"] = ratioMedian(seq, nat)
	if !cfg.Trace {
		return out, nil
	}

	if len(spc) > 0 && len(specTraced) > 0 {
		m["trace.overhead_share"] = median(specTraced)/median(spc) - 1
	}
	if len(overlap) > 0 {
		m["mutls.chunk_overlap_share"] = median(overlap)
		m["mutls.chunk_gap_us_p50"] = median(gaps)
	}
	statsMetrics(m, sums)
	out.Spans = k.tracer.Spans()
	return out, nil
}

// statsMetrics condenses the rt.Stats() summaries of the traced spec reps:
// for each figure the median over reps, so that a count that repeats
// exactly reads as that count.
func statsMetrics(m map[string]float64, sums []*mutls.Summary) {
	if len(sums) == 0 {
		return
	}
	col := func(f func(*mutls.Summary) float64) float64 {
		xs := make([]float64, len(sums))
		for i, s := range sums {
			xs[i] = f(s)
		}
		return median(xs)
	}
	share := func(part, whole vclock.Cost) float64 {
		if whole <= 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	m["stats.commits"] = col(func(s *mutls.Summary) float64 { return float64(s.Commits) })
	m["stats.rollbacks"] = col(func(s *mutls.Summary) float64 { return float64(s.Rollbacks) })
	m["stats.commit_share"] = col(func(s *mutls.Summary) float64 {
		if s.Executions == 0 {
			return 0
		}
		return float64(s.Commits) / float64(s.Executions)
	})
	m["stats.read_set_peak"] = col(func(s *mutls.Summary) float64 { return float64(s.ReadSetPeak) })
	m["stats.write_set_peak"] = col(func(s *mutls.Summary) float64 { return float64(s.WriteSetPeak) })
	m["stats.words_committed"] = col(func(s *mutls.Summary) float64 { return float64(s.GBuf.WordsCommitted) })
	m["stats.conflicts"] = col(func(s *mutls.Summary) float64 { return float64(s.GBuf.Conflicts) })

	crit := func(phases ...vclock.Phase) float64 {
		return col(func(s *mutls.Summary) float64 {
			var sum vclock.Cost
			for _, p := range phases {
				sum += s.NonSpecLedger[p]
			}
			return share(sum, s.NonSpecRuntime)
		})
	}
	spec := func(phases ...vclock.Phase) float64 {
		return col(func(s *mutls.Summary) float64 {
			var sum vclock.Cost
			for _, p := range phases {
				sum += s.SpecLedger[p]
			}
			return share(sum, s.SpecRuntime)
		})
	}
	m["stats.crit_work_share"] = crit(vclock.Work)
	m["stats.crit_idle_share"] = crit(vclock.Idle)
	m["stats.crit_overhead_share"] = crit(vclock.Join, vclock.Fork, vclock.FindCPU)
	m["stats.spec_work_share"] = spec(vclock.Work)
	m["stats.spec_idle_share"] = spec(vclock.Idle)
	m["stats.spec_wasted_share"] = spec(vclock.Wasted)
	m["stats.spec_overhead_share"] = spec(vclock.Fork, vclock.FindCPU, vclock.Validation,
		vclock.Commit, vclock.Finalize, vclock.Overflow)
}
