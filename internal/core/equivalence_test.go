package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// The fundamental TLS safety invariant: for any program, any forking model,
// any CPU count and any forced-rollback probability, the final memory image
// equals the sequential execution's. These tests drive randomly generated
// mini-programs through the chunked-loop and divide-and-conquer patterns
// and compare against a plain sequential run.

// miniOp is one deterministic operation over a shared word array.
type miniOp struct {
	kind byte // 0: dst = a[s1]*3 + a[s2] + k; 1: dst = a[s1] ^ k; 2: pure tick
	s1   int
	s2   int
	dst  int
	k    int64
}

// miniProgram is a sequence of chunks, each a list of ops executed in order.
type miniProgram struct {
	words  int
	chunks [][]miniOp
}

func genProgram(rng *rand.Rand) miniProgram {
	words := 8 + rng.Intn(24)
	nChunks := 1 + rng.Intn(6)
	p := miniProgram{words: words}
	for c := 0; c < nChunks; c++ {
		nOps := 1 + rng.Intn(12)
		ops := make([]miniOp, nOps)
		for i := range ops {
			ops[i] = miniOp{
				kind: byte(rng.Intn(3)),
				s1:   rng.Intn(words),
				s2:   rng.Intn(words),
				dst:  rng.Intn(words),
				k:    int64(rng.Intn(100)),
			}
		}
		p.chunks = append(p.chunks, ops)
	}
	return p
}

func runOps(t *Thread, arr mem.Addr, ops []miniOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			v := t.LoadInt64(arr+mem.Addr(8*op.s1))*3 + t.LoadInt64(arr+mem.Addr(8*op.s2)) + op.k
			t.StoreInt64(arr+mem.Addr(8*op.dst), v)
		case 1:
			t.StoreInt64(arr+mem.Addr(8*op.dst), t.LoadInt64(arr+mem.Addr(8*op.s1))^op.k)
		case 2:
			t.Tick(op.k)
		}
	}
}

// runSequential executes the program without any speculation and returns
// the final array image.
func runSequential(tb testing.TB, p miniProgram) []int64 {
	rt := newRT(tb, 1, nil)
	out := make([]int64, p.words)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * p.words)
		for i := 0; i < p.words; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), int64(i)*7)
		}
		for _, ops := range p.chunks {
			runOps(t0, arr, ops)
		}
		for i := 0; i < p.words; i++ {
			out[i] = t0.LoadInt64(arr + mem.Addr(8*i))
		}
	})
	return out
}

// runSpeculative executes the program under the chunked-loop TLS pattern:
// each region forks its successor chunk, the non-speculative thread joins
// the chain in order and re-executes rolled-back chunks inline.
func runSpeculative(tb testing.TB, p miniProgram, model Model, cpus int, prob float64, seed uint64) []int64 {
	rt := newRT(tb, cpus, func(o *Options) {
		o.RollbackProb = prob
		o.Seed = seed
		// Every backend takes its turn; the openaddr sizing is small enough
		// for the program's words to collide and park.
		backends := gbuf.Backends()
		o.GBuf = gbuf.Config{Backend: backends[seed%uint64(len(backends))], LogWords: 8, OverflowCap: 32}
	})
	out := make([]int64, p.words)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * p.words)
		for i := 0; i < p.words; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), int64(i)*7)
		}
		var region RegionFunc
		body := func(c *Thread, idx int, ranks []Rank) {
			if idx+1 < len(p.chunks) {
				if h := c.Fork(ranks, 0, model); h != nil {
					h.SetRegvarInt64(0, int64(idx+1))
					h.SetRegvarAddr(1, arr)
					h.Start(region)
				}
			}
			runOps(c, arr, p.chunks[idx])
		}
		region = func(c *Thread) uint32 {
			idx := int(c.GetRegvarInt64(0))
			ranks := []Rank{0}
			body(c, idx, ranks)
			c.SaveRegvarInt64(2, int64(ranks[0]))
			return 0
		}
		ranks := []Rank{0}
		body(t0, 0, ranks)
		for idx := 1; idx < len(p.chunks); idx++ {
			res := t0.Join(ranks, 0)
			if res.Committed() {
				ranks[0] = Rank(res.RegvarInt64(2))
			} else {
				ranks[0] = 0
				body(t0, idx, ranks)
			}
		}
		for i := 0; i < p.words; i++ {
			out[i] = t0.LoadInt64(arr + mem.Addr(8*i))
		}
	})
	return out
}

func TestQuickSequentialEquivalenceChunkedLoop(t *testing.T) {
	models := []Model{InOrder, OutOfOrder, Mixed, MixedLinear}
	probs := []float64{0, 0.3, 1.0}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genProgram(rng)
		want := runSequential(t, p)
		model := models[rng.Intn(len(models))]
		prob := probs[rng.Intn(len(probs))]
		cpus := 1 + rng.Intn(4)
		got := runSpeculative(t, p, model, cpus, prob, uint64(seed))
		for i := range want {
			if got[i] != want[i] {
				t.Logf("divergence at word %d: got %d want %d (model=%v cpus=%d prob=%v seed=%d)",
					i, got[i], want[i], model, cpus, prob, seed)
				return false
			}
		}
		return true
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// Divide-and-conquer equivalence: a random tree computation (range
// transform) with forks on the second half, under injected rollbacks.
func runTreeTransform(tb testing.TB, n int, cpus int, prob float64, seed uint64, speculate bool) []int64 {
	rt := newRT(tb, cpus, func(o *Options) {
		o.RollbackProb = prob
		o.Seed = seed
	})
	out := make([]int64, n)
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * n)
		for i := 0; i < n; i++ {
			t0.StoreInt64(arr+mem.Addr(8*i), int64(seed%97)+int64(i))
		}
		leaf := func(c *Thread, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := c.LoadInt64(arr + mem.Addr(8*i))
				c.StoreInt64(arr+mem.Addr(8*i), v*2+1)
			}
		}
		if speculate {
			treeDrive(t0, 0, n, 4, Mixed, leaf)
		} else {
			leaf(t0, 0, n)
		}
		for i := 0; i < n; i++ {
			out[i] = t0.LoadInt64(arr + mem.Addr(8*i))
		}
	})
	return out
}

func TestQuickSequentialEquivalenceTree(t *testing.T) {
	f := func(seed int64, rawCPUs uint8, rawProb uint8) bool {
		cpus := 1 + int(rawCPUs%6)
		prob := []float64{0, 0.25, 1.0}[rawProb%3]
		n := 64
		want := runTreeTransform(t, n, 1, 0, uint64(seed), false)
		got := runTreeTransform(t, n, cpus, prob, uint64(seed), true)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("tree divergence at %d: got %d want %d (cpus=%d prob=%v)", i, got[i], want[i], cpus, prob)
				return false
			}
		}
		return true
	}
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// Deterministic repeatability: virtual timing plus a fixed seed must give
// identical virtual runtimes run-to-run when the schedule is
// structure-determined (no injected randomness).
func TestVirtualTimingDeterministicRuntime(t *testing.T) {
	run := func() vclock.Cost {
		rt := newRT(t, 4, nil)
		defer rt.Close()
		return rt.Run(func(t0 *Thread) {
			arr := t0.Alloc(8 * 64)
			var region RegionFunc
			region = func(c *Thread) uint32 {
				base := int(c.GetRegvarInt64(0))
				for i := 0; i < 16; i++ {
					c.StoreInt64(arr+mem.Addr(8*(base+i)), int64(i))
				}
				c.Tick(500)
				return 0
			}
			ranks := []Rank{0, 0, 0}
			for k := 0; k < 3; k++ {
				if h := t0.Fork(ranks, k, Mixed); h != nil {
					h.SetRegvarInt64(0, int64(16*(k+1)))
					h.Start(region)
				}
			}
			for i := 0; i < 16; i++ {
				t0.StoreInt64(arr+mem.Addr(8*i), int64(i))
			}
			t0.Tick(500)
			for k := 2; k >= 0; k-- {
				t0.Join(ranks, k)
			}
		})
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatalf("virtual runtime not deterministic: %d vs %d", t1, t2)
	}
}

// A sanity check that forced rollback probabilities in between the extremes
// produce both commits and rollbacks over many speculations.
func TestInjectedRollbackMixedOutcomes(t *testing.T) {
	rt := newRT(t, 2, func(o *Options) { o.RollbackProb = 0.4; o.Seed = 7 })
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		for i := 0; i < 60; i++ {
			h := t0.Fork(ranks, 0, Mixed)
			if h == nil {
				t.Fatal("fork failed")
			}
			h.Start(func(c *Thread) uint32 { return 0 })
			t0.Join(ranks, 0)
		}
	})
	s := rt.Stats()
	if s.Commits == 0 || s.Rollbacks == 0 {
		t.Fatalf("want both outcomes at p=0.4: commits=%d rollbacks=%d", s.Commits, s.Rollbacks)
	}
	if fmt.Sprintf("%T", s) == "" {
		t.Fatal("unreachable")
	}
}
