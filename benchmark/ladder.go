package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/gbuf"
	"repro/internal/lbuf"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/vclock"
	"repro/mutls"
	"repro/mutls/pool"
)

// The ladder: micro-benchmarks that time public calls of each layer on
// fixed, seeded inputs, bottom (mem) to top (/run over loopback). Range
// operations work on 4096-word sequential runs, word operations on 4096
// seeded word addresses inside a 32 k-word region. A rung is the median of
// at least 30 batches of at least 1 ms each. Single-threaded rungs ignore
// the host gate; anything that forks is bracketed by probes like a block.

const (
	runWords    = 4096      // one sequential run, and the word-address count
	regionWords = 32 * 1024 // the region word addresses are drawn from
	regionBytes = regionWords * mem.Word
	runBytes    = runWords * mem.Word
	rangeRuns   = regionWords / runWords // runs per speculative range rung
)

type ladder struct {
	cfg     Config
	gate    *Gate
	m       map[string]float64
	offs    []mem.Addr // seeded word offsets inside the region
	lastPar float64    // the latest probe, shared by consecutive gated rungs
	hostOK  bool

	attempted int
	failed    int
}

// check counts one verified result of a rung.
func (l *ladder) check(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

// batches and minBatch: at least 30 batches of at least 1 ms, or a token
// amount in a quick run.
func (l *ladder) batches() int {
	if l.cfg.Quick {
		return 3
	}
	return 30
}

func (l *ladder) minBatch() time.Duration {
	if l.cfg.Quick {
		return 50 * time.Microsecond
	}
	return time.Millisecond
}

// perOp times call, which performs ops operations and returns how long the
// part of it that counts took, and returns the median nanoseconds per
// operation over the batches.
func (l *ladder) perOp(ops int, call func() time.Duration) float64 {
	// Size the batch on a warm call.
	call() // cold
	calls := 1
	for first := call(); first*time.Duration(calls) < l.minBatch() && calls < 1<<20; {
		calls *= 2
	}
	samples := make([]float64, l.batches())
	for b := range samples {
		var total time.Duration
		for i := 0; i < calls; i++ {
			total += call()
		}
		samples[b] = float64(total.Nanoseconds()) / float64(calls*ops)
	}
	return median(samples)
}

// timed adapts a plain function to perOp's contract.
func timed(fn func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
}

// gated runs rungs that fork between two probes and repeats them, a few
// times at most, until both probes saw two free cores. The single-threaded
// rungs before it let the host fall back to one core, so it warms the host
// up first whenever the last probe was not clean.
func (l *ladder) gated(rungs func()) {
	for try := 0; ; try++ {
		if l.lastPar < cleanPar {
			l.lastPar = l.gate.WarmUp(hostWarmUp)
		}
		before := l.lastPar
		rungs()
		l.lastPar = l.gate.Probe()
		clean := before >= cleanPar && l.lastPar >= cleanPar
		if clean || try == 2 {
			l.hostOK = l.hostOK && clean
			return
		}
	}
}

// runLadder measures every rung and returns the layer metrics.
func runLadder(cfg Config, gate *Gate) (*Outcome, error) {
	l := &ladder{cfg: cfg, gate: gate, m: map[string]float64{}, hostOK: true}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	l.offs = make([]mem.Addr, runWords)
	for i := range l.offs {
		l.offs[i] = mem.Addr(rng.Intn(regionWords) * mem.Word)
	}
	steps := []func() error{l.memRungs, l.gbufRungs, l.smallRungs, l.coreRungs, l.driverRungs, l.poolRungs, l.serveRungs}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	out := &Outcome{Metrics: l.m, Dists: map[string]Dist{}, HostOK: l.hostOK,
		Attempted: l.attempted, Failed: l.failed}
	return out, nil
}

var ladderSink uint64

func (l *ladder) memRungs() error {
	arena, err := mem.NewArena(regionBytes + 2*mem.Word)
	if err != nil {
		return err
	}
	const base = mem.Addr(mem.Word)
	buf := make([]byte, runBytes)
	for i := range buf {
		buf[i] = byte(i)
	}

	l.m["mem.write_word_ns"] = l.perOp(runWords, timed(func() {
		for i, o := range l.offs {
			arena.WriteWord(base+o, uint64(i))
		}
	}))
	l.m["mem.read_word_ns"] = l.perOp(runWords, timed(func() {
		for _, o := range l.offs {
			ladderSink += arena.ReadWord(base + o)
		}
	}))
	l.m["mem.write_words_ns_per_word"] = l.perOp(runWords, timed(func() { arena.WriteWords(base, buf) }))
	got := make([]byte, runBytes)
	l.m["mem.read_words_ns_per_word"] = l.perOp(runWords, timed(func() { arena.ReadWords(base, got) }))
	l.check(bytes.Equal(got, buf))
	equal := true
	l.m["mem.equal_words_ns_per_word"] = l.perOp(runWords, timed(func() { equal = arena.EqualWords(base, buf) && equal }))
	l.check(equal)

	// 16 registered ranges with gaps between them, as a heap with 16 live
	// objects has; lookups land inside them.
	reg := mem.NewRegistry()
	const span = regionBytes / 16
	for r := 0; r < 16; r++ {
		if err := reg.Register(base+mem.Addr(r*span), span-mem.Word); err != nil {
			return err
		}
	}
	inside := true
	l.m["mem.registry_contains_ns"] = l.perOp(runWords, timed(func() {
		for _, o := range l.offs {
			p := base + o
			if int(o)%span == span-mem.Word {
				p -= mem.Word // the gap word: step back into the range
			}
			inside = reg.Contains(p, mem.Word) && inside
		}
	}))
	l.check(inside)

	stamps, err := mem.NewWriteStamps(arena.Size(), 0)
	if err != nil {
		return err
	}
	l.m["mem.stamps_mark_ns"] = l.perOp(runWords, timed(func() {
		for _, o := range l.offs {
			stamps.Mark(base+o, mem.Word)
		}
	}))

	al, err := mem.NewAllocator(mem.NewRegistry(), base, regionBytes)
	if err != nil {
		return err
	}
	allocOK := true
	l.m["mem.alloc_free_ns"] = l.perOp(1, timed(func() {
		p, err := al.Alloc(64)
		allocOK = allocOK && err == nil && al.Free(p) == nil
	}))
	// What Recycle pays for a heap that a served kernel left 16 objects in.
	l.m["mem.alloc_reset_us"] = l.perOp(1, func() time.Duration {
		for i := 0; i < 16; i++ {
			_, err := al.Alloc(1024)
			allocOK = allocOK && err == nil
		}
		start := time.Now()
		allocOK = al.Reset() == nil && allocOK
		return time.Since(start)
	}) / 1e3
	l.check(allocOK)
	return nil
}

func (l *ladder) gbufRungs() error {
	arena, err := mem.NewArena(2*regionBytes + 2*mem.Word)
	if err != nil {
		return err
	}
	const base = mem.Addr(mem.Word)
	src := make([]byte, runBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, runBytes)

	for _, name := range gbuf.Backends() {
		// The kernel workloads' sizing for openaddr; the other two backends
		// take their own defaults.
		gb, err := gbuf.NewBackend(arena, gbuf.Config{Backend: name, LogWords: 16, OverflowCap: 256}.WithDefaults())
		if err != nil {
			return err
		}
		pre := "gbuf." + name + "."
		ok := true
		// then runs the timed part and finalizes outside the clock, so that
		// every timed access is the first touch of its word.
		then := func(fn func()) func() time.Duration {
			return func() time.Duration {
				d := timed(fn)()
				gb.Finalize()
				return d
			}
		}
		l.m[pre+"load_ns"] = l.perOp(runWords, then(func() {
			for _, o := range l.offs {
				v, st := gb.Load(base+o, mem.Word)
				ladderSink += v
				ok = ok && st != gbuf.Full && st != gbuf.Misaligned
			}
		}))
		l.m[pre+"store_ns"] = l.perOp(runWords, then(func() {
			for i, o := range l.offs {
				st := gb.Store(base+o, mem.Word, uint64(i))
				ok = ok && st != gbuf.Full && st != gbuf.Misaligned
			}
		}))
		l.m[pre+"load_range_ns_per_word"] = l.perOp(runWords, then(func() {
			ok = ok && gb.LoadRange(base, dst) == gbuf.OK
		}))
		l.m[pre+"store_range_ns_per_word"] = l.perOp(runWords, then(func() {
			ok = ok && gb.StoreRange(base, src) == gbuf.OK
		}))
		l.m[pre+"validate_ns_per_word"] = l.perOp(runWords, func() time.Duration {
			gb.LoadRange(base, dst)
			start := time.Now()
			ok = gb.Validate() && ok
			d := time.Since(start)
			gb.Finalize()
			return d
		})
		l.m[pre+"commit_ns_per_word"] = l.perOp(runWords, func() time.Duration {
			gb.StoreRange(base, src)
			start := time.Now()
			gb.Commit(nil)
			d := time.Since(start)
			gb.Finalize()
			return d
		})
		ok = ok && arena.EqualWords(base, src)
		l.m[pre+"finalize_ns_per_word"] = l.perOp(2*runWords, func() time.Duration {
			gb.StoreRange(base, src)
			gb.LoadRange(base+runBytes, dst)
			start := time.Now()
			gb.Finalize()
			return time.Since(start)
		})
		ok = ok && gb.ReadSetSize() == 0 && gb.WriteSetSize() == 0
		l.check(ok)
	}
	return nil
}

// smallRungs are lbuf, predict and vclock.
func (l *ladder) smallRungs() error {
	const slots = 160 // the kernel workloads' RegSlots
	lb, err := lbuf.New(lbuf.Config{RegSlots: slots, StackSlots: 32})
	if err != nil {
		return err
	}
	ok := true
	l.m["lbuf.regvar_set_get_ns"] = l.perOp(slots, timed(func() {
		for s := 0; s < slots; s++ {
			err := lb.SetRegvar(s, uint64(s))
			v, gerr := lb.GetRegvar(s)
			ok = ok && err == nil && gerr == nil && v == uint64(s)
		}
	}))
	l.m["lbuf.frame_push_pop_ns"] = l.perOp(1, timed(func() {
		lb.PushFrame(1, 1)
		ok = lb.PopFrame() == nil && ok
	}))
	l.check(ok)

	// A stride-1 live-out, the shape of the pipeline cursor in loop-memory.
	p := predict.New(predict.Stride)
	next, hits := uint64(0), 0
	l.m["predict.predict_observe_ns"] = l.perOp(runWords, timed(func() {
		for i := 0; i < runWords; i++ {
			if v, warm := p.Predict(1, 0); warm && v == next {
				hits++
			}
			p.Observe(1, 0, next)
			next++
		}
	}))
	l.check(hits > 0)

	model := vclock.DefaultCostModel()
	clk := vclock.NewClock(vclock.Real, &model, time.Now())
	l.m["vclock.span_ns"] = l.perOp(runWords, timed(func() {
		for i := 0; i < runWords; i++ {
			clk.Span(vclock.Join)()
		}
	}))
	ledger := clk.Ledger()
	l.check(ledger[vclock.Join] > 0)
	return nil
}

// ladderOptions is kernelOptions with a heap that holds the region.
func (l *ladder) ladderOptions(rollbackProb float64) mutls.Options {
	o := kernelOptions(kernelSpecs[0], kernelSpecs[0].size, l.cfg)
	o.HeapBytes = 2*regionBytes + (1 << 12)
	o.RollbackProb = rollbackProb
	return o
}

// forkJoin forks a region at point 0, joins it, and returns how long the
// round trip took and whether it committed.
func forkJoin(t *mutls.Thread, ranks []mutls.Rank, region mutls.RegionFunc) (time.Duration, bool) {
	start := time.Now()
	h := t.Fork(ranks, 0, mutls.Mixed)
	if h == nil {
		return time.Since(start), false
	}
	h.Start(region)
	res := t.Join(ranks, 0)
	return time.Since(start), res.Committed()
}

func (l *ladder) coreRungs() error {
	rt, err := mutls.New(l.ladderOptions(0))
	if err != nil {
		return err
	}
	defer rt.Close()
	words := make([]uint64, runWords)
	for i := range words {
		words[i] = uint64(i) * 3
	}
	got := make([]uint64, runWords)

	// Non-speculative Thread accessors: what seq_ms is made of.
	_, err = rt.Run(func(t *mutls.Thread) {
		region := t.Alloc(regionBytes)
		l.m["core.store_ns"] = l.perOp(runWords, timed(func() {
			for i, o := range l.offs {
				t.StoreInt64(region+o, int64(i))
			}
		}))
		l.m["core.load_ns"] = l.perOp(runWords, timed(func() {
			for _, o := range l.offs {
				ladderSink += uint64(t.LoadInt64(region + o))
			}
		}))
		l.m["core.store_range_ns_per_word"] = l.perOp(runWords, timed(func() { t.StoreWords(region, words) }))
		l.m["core.load_range_ns_per_word"] = l.perOp(runWords, timed(func() { t.LoadWords(region, got) }))
		l.check(slices.Equal(got, words))
		l.m["core.checkpoint_ns"] = l.perOp(runWords, timed(func() {
			for i := 0; i < runWords; i++ {
				t.CheckPoint()
			}
		}))
	})
	if err != nil {
		return err
	}
	rt.Recycle()

	// The protocol, and buffered access inside a speculative region, as
	// (fork->join with K accesses - empty fork->join) / K.
	if rt.NumCPUs() > 0 {
		l.gated(func() {
			_, err = rt.Run(func(t *mutls.Thread) { l.specRungs(t, words) })
			rt.Recycle()
		})
		if err != nil {
			return err
		}
		roll, err := mutls.New(l.ladderOptions(1))
		if err != nil {
			return err
		}
		l.gated(func() {
			_, err = roll.Run(func(t *mutls.Thread) {
				ranks := make([]mutls.Rank, 1)
				rolled := true
				l.m["core.fork_join_rollback_us"] = l.perOp(1, func() time.Duration {
					d, committed := forkJoin(t, ranks, func(*mutls.Thread) uint32 { return 0 })
					rolled = rolled && !committed
					return d
				}) / 1e3
				l.check(rolled)
			})
		})
		roll.Close()
		if err != nil {
			return err
		}
	}

	rt.SetCPULimit(0)
	_, err = rt.Run(func(t *mutls.Thread) {
		ranks := make([]mutls.Rank, 1)
		refused := true
		l.m["core.fork_refused_ns"] = l.perOp(1, timed(func() {
			refused = t.Fork(ranks, 0, mutls.Mixed) == nil && refused
		}))
		l.check(refused)
	})
	rt.SetCPULimit(rt.NumCPUs())
	if err != nil {
		return err
	}

	var runErr error
	l.m["core.run_empty_us"] = l.perOp(1, timed(func() {
		if _, err := rt.Run(func(*mutls.Thread) {}); err != nil {
			runErr = err
		}
	})) / 1e3
	l.m["core.recycle_us"] = l.perOp(1, func() time.Duration {
		if _, err := rt.Run(func(t *mutls.Thread) {
			for i := 0; i < 4; i++ {
				t.Alloc(1024)
			}
		}); err != nil {
			runErr = err
		}
		start := time.Now()
		rt.Recycle()
		return time.Since(start)
	}) / 1e3
	opts := kernelOptions(kernelSpecs[0], kernelSpecs[0].size, l.cfg)
	l.m["core.new_close_ms"] = l.perOp(1, timed(func() {
		fresh, err := mutls.New(opts)
		if err != nil {
			runErr = err
			return
		}
		fresh.Close()
	})) / 1e6
	l.check(runErr == nil)
	return runErr
}

// specRungs runs on the non-speculative thread of a runtime with at least
// one speculative CPU.
func (l *ladder) specRungs(t *mutls.Thread, words []uint64) {
	region := t.Alloc(regionBytes)
	t.StoreWords(region, words)
	ranks := make([]mutls.Rank, 1)
	committed := true
	rung := func(ops int, body mutls.RegionFunc) float64 {
		return l.perOp(ops, func() time.Duration {
			d, ok := forkJoin(t, ranks, body)
			committed = committed && ok
			return d
		})
	}
	empty := rung(1, func(*mutls.Thread) uint32 { return 0 })
	l.m["core.fork_join_us"] = empty / 1e3

	// per is the cost of one of ops accesses made inside a region, the
	// round trip itself taken off.
	per := func(ops int, body mutls.RegionFunc) float64 {
		return (rung(1, body) - empty) / float64(ops)
	}
	l.m["core.spec_load_ns"] = per(runWords, func(c *mutls.Thread) uint32 {
		for _, o := range l.offs {
			c.LoadInt64(region + o)
		}
		return 0
	})
	l.m["core.spec_store_ns"] = per(runWords, func(c *mutls.Thread) uint32 {
		for i, o := range l.offs {
			c.StoreInt64(region+o, int64(i))
		}
		return 0
	})
	l.m["core.spec_load_range_ns_per_word"] = per(regionWords, func(c *mutls.Thread) uint32 {
		buf := make([]uint64, runWords)
		for r := 0; r < rangeRuns; r++ {
			c.LoadWords(region+mem.Addr(r*runBytes), buf)
			c.CheckPoint()
		}
		return 0
	})
	l.m["core.spec_store_range_ns_per_word"] = per(regionWords, func(c *mutls.Thread) uint32 {
		for r := 0; r < rangeRuns; r++ {
			c.StoreWords(region+mem.Addr(r*runBytes), words)
			c.CheckPoint()
		}
		return 0
	})
	l.check(committed)
	got := make([]uint64, runWords)
	t.LoadWords(region+mem.Addr((rangeRuns-1)*runBytes), got)
	l.check(got[runWords-1] == words[runWords-1])
}

// driverRungs time the four mutls drivers with empty bodies at the protocol
// width: what one chunk, token, task or group costs before it does any work.
func (l *ladder) driverRungs() error {
	rt, err := mutls.New(l.ladderOptions(0))
	if err != nil {
		return err
	}
	defer rt.Close()
	const n = 64
	l.gated(func() {
		_, err = rt.Run(func(t *mutls.Thread) {
			l.m["mutls.for_us_per_chunk"] = l.perOp(n, timed(func() {
				mutls.For(t, n, mutls.ForOptions{}, func(*mutls.Thread, int) {})
			})) / 1e3
		})
		rt.Recycle()
	})
	l.gated(func() {
		_, err = rt.Run(func(t *mutls.Thread) {
			stage := func(_ *mutls.Thread, _ int, in uint64) uint64 { return in + 1 }
			out := uint64(0)
			l.m["mutls.pipeline_us_per_token"] = l.perOp(n, timed(func() {
				out = mutls.Pipeline(t, n, 0, mutls.PipelineOptions{Predictor: mutls.Stride}, stage, stage, stage)
			})) / 1e3
			l.check(out == 3*n)
		})
		rt.Recycle()
	})
	l.gated(func() {
		_, err = rt.Run(func(t *mutls.Thread) {
			tree := &mutls.Tree{Model: mutls.Mixed, Body: func(*mutls.Thread, *mutls.TreeThread, mutls.Task) {}}
			l.m["mutls.tree_us_per_task"] = l.perOp(1, timed(func() {
				roots := tree.Collect(t, func(tt *mutls.TreeThread) { tt.Spawn(t, mutls.Task{Seq: 1, Span: 1}) })
				tree.Drive(t, roots, nil)
			})) / 1e3
		})
		rt.Recycle()
	})
	l.gated(func() {
		_, err = rt.Run(func(t *mutls.Thread) {
			sum := int64(0)
			l.m["mutls.reduce_us_per_group"] = l.perOp(n, timed(func() {
				sum = mutls.Reduce(t, n, 0, mutls.ReduceOptions{Predictor: mutls.Stride},
					func(_ *mutls.Thread, _ int, acc int64) int64 { return acc + 1 })
			})) / 1e3
			l.check(sum == n)
		})
		rt.Recycle()
	})
	return err
}

// poolRungs time an uncontended lease: one caller, a pool configured as the
// service configures it.
func (l *ladder) poolRungs() error {
	p, err := pool.New(serveOptions().Pool)
	if err != nil {
		return err
	}
	defer p.Close()
	ctx := context.Background()
	ok := true
	// lease times one Acquire and one Release, and returns both.
	lease := func() (acquire, release time.Duration) {
		start := time.Now()
		lease, err := p.Acquire(ctx)
		acquire = time.Since(start)
		if err != nil {
			ok = false
			return acquire, 0
		}
		start = time.Now()
		lease.Release()
		return acquire, time.Since(start)
	}
	l.m["pool.acquire_us"] = l.perOp(1, func() time.Duration { a, _ := lease(); return a }) / 1e3
	l.m["pool.release_us"] = l.perOp(1, func() time.Duration { _, r := lease(); return r }) / 1e3
	l.m["pool.acquire_release_us"] = l.perOp(1, func() time.Duration { a, r := lease(); return a + r }) / 1e3
	l.check(ok)
	return nil
}

// serveRungs time the smallest requests the service answers: /healthz, and
// /run on the cheapest kernel at n=1, through the handler alone and over
// loopback HTTP. The difference between those two is HTTP's share.
func (l *ladder) serveRungs() error {
	svc, err := startService()
	if err != nil {
		return err
	}
	client := newClient()
	ok := true
	get := func(path string) {
		resp, err := client.Get(svc.base + path)
		if err != nil {
			ok = false
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = ok && resp.StatusCode == http.StatusOK
	}
	const minRun = "/run?kernel=x3p1&n=1"
	get(minRun) // fills the server's checksum cache for this shape
	handler := svc.srv.Handler()
	// Even the smallest /run speculates on its lease's CPUs, so these fork.
	l.gated(func() {
		l.m["serve.healthz_us"] = l.perOp(1, timed(func() { get("/healthz") })) / 1e3
		l.m["serve.http_min_us"] = l.perOp(1, timed(func() { get(minRun) })) / 1e3
		l.m["serve.handler_min_us"] = l.perOp(1, timed(func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, minRun, nil))
			ok = ok && rec.Code == http.StatusOK
		})) / 1e3
	})
	l.check(ok)
	client.CloseIdleConnections()
	if err := svc.stop(); err != nil {
		return fmt.Errorf("ladder service: %w", err)
	}
	return nil
}
