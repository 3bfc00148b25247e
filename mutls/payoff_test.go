package mutls_test

import (
	"runtime"
	"testing"

	"repro/internal/stats"
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

// TestPipelineGroupsKeepTheirOwnEstimates: on one speculative CPU a pipeline
// of a 100 us stage, a 40 us one, a store and another 40 us stage is cut
// {0} | {1, 2, 3} — stage 0 outweighs the rest together, so no host noise
// moves the cut. The group forks at its first stage's point and is judged
// there on what all three of its stages are worth, while every stage keeps
// its own inline average — the store's is a store's (a few microseconds
// under the race detector), not a blend — and the stages fused behind the
// first never fork on their own points once the cut is known (here: on the
// second call).
func TestPipelineGroupsKeepTheirOwnEstimates(t *testing.T) {
	const tokens = 400
	perUS := spinsPerMicrosecond()
	stage := func(us int) mutls.Stage {
		return func(_ *mutls.Thread, _ int, in uint64) uint64 { return spin(us*perUS, in) }
	}
	rt := handoffRuntime(t, nil)
	run := func() *mutls.Summary {
		t.Helper()
		if _, err := rt.Run(func(th *mutls.Thread) {
			arr := th.Alloc(8 * tokens)
			out := mutls.Pipeline(th, tokens, 0, mutls.PipelineOptions{Predictor: mutls.Stride},
				stage(100), stage(40),
				func(c *mutls.Thread, token int, in uint64) uint64 {
					c.StoreInt64(arr+mutls.Addr(8*token), int64(token))
					return in + 1
				},
				stage(40))
			if out != 4*tokens {
				t.Errorf("pipeline live-out %d, want %d", out, 4*tokens)
			}
		}); err != nil {
			t.Fatal(err)
		}
		s := rt.Stats()
		rt.Recycle()
		return s
	}
	first, second := run(), run()
	// Points in interning order: stages 1, 2, 3, then 0.
	group, tiny, last := second.PerPoint[0], second.PerPoint[1], second.PerPoint[2]
	t.Logf("first call %+v\nsecond call %+v", first.PerPoint, second.PerPoint)
	for _, fused := range []stats.PointStats{tiny, last} {
		if fused.Commits+fused.Rollbacks+fused.RefusedNoPay+fused.RefusedNoProc != 0 {
			t.Fatalf("second call: a stage fused into the group forked on its own point: %+v", fused)
		}
	}
	if tiny.InlineNS <= 0 || last.InlineNS < 4*tiny.InlineNS {
		t.Fatalf("inline averages %d ns and %d ns: the stages share an estimate", tiny.InlineNS, last.InlineNS)
	}
	if group.Commits+group.Rollbacks == 0 || group.GainNS <= group.InlineNS+last.InlineNS/2 {
		t.Fatalf("the group's point %+v: want joins, and a gain that is the group's, not its first stage's", group)
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
