package mutls_test

import (
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
