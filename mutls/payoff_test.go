package mutls_test

import (
	"runtime"
	"testing"

	"repro/mutls"
)

// tinyDrivers run each driver over 4 096 bodies of a few nanoseconds: one
// store of a value only its index (and, for Reduce, the fold) decides. check
// verifies what the driver left behind.
var tinyDrivers = []struct {
	name string
	run  func(t *mutls.Thread, arr mutls.Addr) uint64
	want uint64
}{
	{"For", func(t *mutls.Thread, arr mutls.Addr) uint64 {
		mutls.For(t, tinyN, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
			c.StoreInt64(arr+mutls.Addr(8*idx), int64(3*idx+1))
		})
		return 0
	}, 0},
	{"Reduce", func(t *mutls.Thread, arr mutls.Addr) uint64 {
		return uint64(mutls.Reduce(t, tinyN, 5, mutls.ReduceOptions{Predictor: mutls.Stride},
			func(c *mutls.Thread, idx int, acc int64) int64 {
				c.StoreInt64(arr+mutls.Addr(8*idx), int64(3*idx+1))
				return acc + 2
			}))
	}, 5 + 2*tinyN},
	{"Pipeline", func(t *mutls.Thread, arr mutls.Addr) uint64 {
		return mutls.Pipeline(t, tinyN, 0, mutls.PipelineOptions{Predictor: mutls.Stride},
			func(c *mutls.Thread, token int, in uint64) uint64 { return in + 1 },
			func(c *mutls.Thread, token int, in uint64) uint64 {
				c.StoreInt64(arr+mutls.Addr(8*token), int64(3*token+1))
				return in + 1
			})
	}, 2 * tinyN},
}

const tinyN = 4096

// runTiny runs one tiny driver on rt and checks its result and every word
// it was to store.
func runTiny(t *testing.T, rt *mutls.Runtime, run func(*mutls.Thread, mutls.Addr) uint64, want uint64) *mutls.Summary {
	t.Helper()
	if _, err := rt.Run(func(th *mutls.Thread) {
		arr := th.Alloc(8 * tinyN)
		if got := run(th, arr); got != want {
			t.Errorf("driver returned %d, want %d", got, want)
		}
		for idx := 0; idx < tinyN; idx++ {
			if got := th.LoadInt64(arr + mutls.Addr(8*idx)); got != int64(3*idx+1) {
				t.Fatalf("word %d is %d, want %d", idx, got, 3*idx+1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return rt.Stats()
}

// refusals sums the pay-off guard's refusals over a run's points.
func refusals(s *mutls.Summary) (n int) {
	for _, ps := range s.PerPoint {
		n += ps.RefusedNoPay
	}
	return n
}

// TestTinyBodiesStopForking: under real timing every driver learns that a
// body of a few nanoseconds is not worth a fork — For and Reduce within the
// estimate's 32 joins, Pipeline once its stage has run inline often enough
// to outweigh its cold first tokens, which the race detector makes 36 us —
// finishes with the right result, and remembers the verdict on the next
// call, on fresh point ids after a Recycle, where it forks only to probe.
func TestTinyBodiesStopForking(t *testing.T) {
	for _, d := range tinyDrivers {
		t.Run(d.name, func(t *testing.T) {
			rt := handoffRuntime(t, nil)
			first := runTiny(t, rt, d.run, d.want)
			if forks := first.Commits + first.Rollbacks; forks > tinyN/2 || refusals(first) < tinyN/4 {
				t.Fatalf("first call: %d forks and %d refusals over %d bodies, want at most %d forks (%+v)",
					forks, refusals(first), tinyN, tinyN/2, first.PerPoint)
			}
			rt.Recycle()
			second := runTiny(t, rt, d.run, d.want)
			if forks := second.Commits + second.Rollbacks; forks > 8 || refusals(second) < tinyN/4 {
				t.Fatalf("second call: %d forks and %d refusals over %d bodies, want at most 8 forks (%+v)",
					forks, refusals(second), tinyN, second.PerPoint)
			}
		})
	}
}

// TestGuardInactiveUnderVirtualTiming: the same drivers under virtual timing
// fork whenever the protocol lets them — nothing is measured and nothing
// refused, so the figures stay a function of the cost model alone.
func TestGuardInactiveUnderVirtualTiming(t *testing.T) {
	for _, d := range tinyDrivers {
		t.Run(d.name, func(t *testing.T) {
			rt := handoffRuntime(t, func(o *mutls.Options) { o.Timing = mutls.Virtual })
			s := runTiny(t, rt, d.run, d.want)
			if s.Commits+s.Rollbacks < tinyN/4 || refusals(s) != 0 {
				t.Fatalf("%d forks and %d refusals over %d bodies, want forks throughout and no refusal",
					s.Commits+s.Rollbacks, refusals(s), tinyN)
			}
			for p, ps := range s.PerPoint {
				if ps.InlineNS != 0 || ps.GainNS != 0 || ps.CostNS != 0 {
					t.Fatalf("point %d carries an estimate under virtual timing: %+v", p, ps)
				}
			}
		})
	}
}

// TestPipelineStagesKeepTheirOwnEstimates: the two speculated stages of one
// pipeline are two bodies — a store of a few nanoseconds and 100 us of
// arithmetic — and each is measured and judged on its own record: the tiny
// one stops forking and stays stopped on the next call, whatever the large
// one does, and their inline averages are a stage's each, not a blend.
func TestPipelineStagesKeepTheirOwnEstimates(t *testing.T) {
	const tokens = 400
	work := 100 * spinsPerMicrosecond()
	rt := handoffRuntime(t, nil)
	run := func() *mutls.Summary {
		t.Helper()
		if _, err := rt.Run(func(th *mutls.Thread) {
			arr := th.Alloc(8 * tokens)
			out := mutls.Pipeline(th, tokens, 0, mutls.PipelineOptions{Predictor: mutls.Stride},
				func(c *mutls.Thread, token int, in uint64) uint64 { return in + 1 },
				func(c *mutls.Thread, token int, in uint64) uint64 {
					c.StoreInt64(arr+mutls.Addr(8*token), int64(token))
					return in + 1
				},
				func(c *mutls.Thread, token int, in uint64) uint64 { return spin(work, in) })
			if out != 3*tokens {
				t.Errorf("pipeline live-out %d, want %d", out, 3*tokens)
			}
		}); err != nil {
			t.Fatal(err)
		}
		s := rt.Stats()
		rt.Recycle()
		return s
	}
	first, second := run(), run()
	tiny, large := second.PerPoint[0], second.PerPoint[1]
	t.Logf("first call %+v\nsecond call %+v", first.PerPoint, second.PerPoint)
	if got := first.PerPoint[0].RefusedNoPay; got < tokens/4 {
		t.Fatalf("first call: the tiny stage was refused %d forks of %d", got, tokens)
	}
	if forks := tiny.Commits + tiny.Rollbacks; forks > 8 || tiny.RefusedNoPay < tokens/2 {
		t.Fatalf("second call: the tiny stage forked %d times and was refused %d, want its verdict remembered", forks, tiny.RefusedNoPay)
	}
	if tiny.InlineNS <= 0 || large.InlineNS < 8*tiny.InlineNS {
		t.Fatalf("inline averages %d ns and %d ns: the stages share an estimate", tiny.InlineNS, large.InlineNS)
	}
}

// TestDriversStartedOnSpeculativeThreads: a one-chunk loop is legal on any
// thread, so the chunks of an outer loop start nested drivers from
// speculative threads while the non-speculative thread starts its own — on
// the same body and on another. Interning and the per-call reset are safe
// under -race, and the result is the sequential one.
func TestDriversStartedOnSpeculativeThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	const rows = 64
	rt, err := mutls.New(mutls.Options{CPUs: 2, Timing: mutls.Real})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(func(th *mutls.Thread) {
		arr := th.Alloc(8 * rows)
		for round := 0; round < 8; round++ {
			mutls.For(th, rows, mutls.ForOptions{}, func(c *mutls.Thread, r int) {
				mutls.For(c, 1, mutls.ForOptions{}, func(cc *mutls.Thread, _ int) {
					cc.StoreInt64(arr+mutls.Addr(8*r), int64(round*rows+r))
				})
				if !c.Speculative() {
					mutls.For(c, 1, mutls.ForOptions{}, func(cc *mutls.Thread, _ int) { cc.Tick(1) })
				}
			})
		}
		for r := 0; r < rows; r++ {
			if got := th.LoadInt64(arr + mutls.Addr(8*r)); got != int64(7*rows+r) {
				t.Fatalf("row %d holds %d, want %d", r, got, 7*rows+r)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Commits == 0 || s.PointsExhausted != 0 {
		t.Fatalf("%d commits, %d evictions: want speculated chunks and three bodies on three points", s.Commits, s.PointsExhausted)
	}
}
