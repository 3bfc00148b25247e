package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/raceflag"
	"repro/internal/vclock"
)

// simToken is one token of a synthetic driver: what the region costs inline,
// what a fork/join on it costs the joining thread, and whether the fork
// commits. coldCost, when set, is what the fork costs instead when it wakes a
// parked worker — when the token before it did not fork — and wake the part
// of it the worker's wake-up took. Nanoseconds, no clock.
type simToken struct {
	inline, cost, coldCost, wake int64
	committed                    bool
}

// simulate drives pe the way Pipeline drives one stage, through the same
// calls Fork, Start, Join and StartInline make: a fork attempt per token
// (token 0 runs inline — the cold predictor — which is the entry's first
// inline sample), a join for every fork, an inline execution for every token
// that was refused or rolled back. It returns the tokens that forked and
// how many the verdict refused (the rest of the tokens ran inline to refresh
// a stale inline average).
func simulate(pe *payoff, from, to int, token func(i int) simToken) (forked []int, refused int) {
	for i := from; i < to; i++ {
		tk := token(i)
		fork := i > 0 && pe.admit()
		if i > 0 && !fork && pe.noPay.Load() {
			refused++
		}
		if fork {
			cold := tk.coldCost > 0 && (len(forked) == 0 || forked[len(forked)-1] != i-1)
			wake := int64(0)
			if cold {
				tk.cost, wake = tk.coldCost, tk.wake
			}
			pe.forked()
			pe.observeFork(tk.cost/2, cold)
			pe.observeJoin(tk.cost-tk.cost/2, wake, tk.committed)
			forked = append(forked, i)
		}
		if (!fork || !tk.committed) && pe.timeInline() {
			pe.observeInline(tk.inline)
		}
	}
	return forked, refused
}

// steady is a region with constant times that always commits.
func steady(inline, cost int64) func(int) simToken {
	return func(int) simToken { return simToken{inline: inline, cost: cost, committed: true} }
}

// TestWindowMeanMatchesReference: the window's running sum and largest read
// the same mean without the largest sample as one recomputed from the
// samples it holds, after every add — while the ring fills, when the
// largest is evicted (a descending run evicts it every time) and among equal
// samples (eight distinct values).
func TestWindowMeanMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w window
		var held []int64
		for i := 0; i < 600; i++ {
			var x int64
			switch seed % 3 {
			case 0:
				x = 1000 * rng.Int63n(8)
			case 1:
				x = rng.Int63n(1 << 40)
			default:
				x = int64(600-i) * (1 + rng.Int63n(3))
			}
			if i%97 == 0 {
				x = 1 << 41 // the largest until it is evicted
			}
			w.add(x)
			if held = append(held, x); len(held) > len(w.ring) {
				held = held[1:]
			}
			sum := int64(0)
			for _, v := range held {
				sum += v
			}
			want := sum
			if len(held) > 1 {
				want = (sum - slices.Max(held)) / int64(len(held)-1)
			}
			if got := w.mean(); got != want || int(w.n) != len(held) {
				t.Fatalf("seed %d, sample %d: mean %d of %d samples, want %d of %d", seed, i, got, w.n, want, len(held))
			}
		}
	}
}

// TestPayoffRefusesAndProbes: a 2.5 us region at 6 us a fork/join
// (loop-memory's off-loaded stage) forks 32 times, and after that only on
// the probe schedule — after 32 refusals, 64, ... 1 024, 1 024 — with
// probes of two forks: the second join has lost more than two gains.
func TestPayoffRefusesAndProbes(t *testing.T) {
	var pe payoff
	got, _ := simulate(&pe, 0, 6000, steady(2500, 6000))
	var want []int
	for i := 1; i <= payoffWindow; i++ {
		want = append(want, i)
	}
	for last, gap := payoffWindow, payoffWindow; ; gap = min(2*gap, payoffMaxProbe) {
		at := last + gap + 1
		if at+1 >= 6000 {
			break
		}
		want = append(want, at, at+1)
		last = at + 1
	}
	if !slices.Equal(got, want) {
		t.Fatalf("forked at tokens %v, want %v", got, want)
	}
	if len(want) != payoffWindow+2*9 {
		t.Fatalf("the schedule has %d probe forks in 6 000 tokens, want 9 probes of 2", len(want)-payoffWindow)
	}
}

// TestPayoffKeepsForkingWhatPays: regions that pay are never refused, not
// by a quarter of the forks rolling back and not by the join that now and
// then waits a whole chunk. The first row is loop-rollback as measured on
// two vCPUs (1.1 ms chunks, 45 us a fork/join, RollbackProb 0.25, one join
// in 32 waiting 1.2 ms). The second is a small region that still pays,
// where the same outlier is 25 times the region: the window drops one of
// its two and still pays with the other. The third is the grey zone a
// margin would give away: every fourth fork rolls back, so a fork buys
// 75 us on average, and at 68 us it still pays.
func TestPayoffKeepsForkingWhatPays(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		inline, cost, outlier int64
		rollbacks             float64 // at random
		rollbackEvery         int     // on a schedule
	}{
		{"loop-rollback", 1_100_000, 45_000, 1_200_000, 0.25, 0},
		{"small region", 40_000, 6_000, 1_000_000, 0, 0},
		{"grey zone", 100_000, 68_000, 68_000, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 100; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var pe payoff
				joins := 0
				forked, refused := simulate(&pe, 0, 10_000, func(int) simToken {
					joins++
					tk := simToken{inline: tc.inline, cost: tc.cost, committed: rng.Float64() >= tc.rollbacks}
					if tc.rollbackEvery > 0 && joins%tc.rollbackEvery == 0 {
						tk.committed = false
					}
					if joins%32 == 0 {
						tk.cost = tc.outlier
					}
					return tk
				})
				if refused != 0 || len(forked) < 9_999-9_999/(2*payoffWindow) {
					t.Fatalf("seed %d: %d of 9 999 tokens forked, %d refused (inline %d gain %d cost %d)",
						seed, len(forked), refused, pe.inline.mean(), pe.gain(), pe.cost.mean())
				}
			}
		})
	}
}

// TestPayoffRollbacksBuyNothing: a 100 us region at 10 us a fork/join pays
// ten times over when it commits and not at all when nineteen forks in
// twenty roll back — booked as a gain that was not had, not as a cost that
// was paid: the cost window stays what a fork/join costs, which is what
// PerPoint reports.
func TestPayoffRollbacksBuyNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pe payoff
	forked, _ := simulate(&pe, 0, 4000, func(int) simToken {
		return simToken{inline: 100_000, cost: 10_000, committed: rng.Float64() >= 0.95}
	})
	if len(forked) > 400 || pe.gain() > 100_000/4 || pe.cost.mean() > 2*10_000 {
		t.Fatalf("%d of 4 000 tokens forked at a 95 %% rollback rate (gain %d cost %d): want few, a gain the rollbacks took away and a cost they left alone",
			len(forked), pe.gain(), pe.cost.mean())
	}
}

// TestPayoffNoticesAGrownRegion: a refused region whose inline time grows
// tenfold forks again long before its next probe comes due — the inline
// executions a refused point keeps making are samples too, one in 32 of
// them, and eleven of 64 outweigh the rest — and stays forking.
func TestPayoffNoticesAGrownRegion(t *testing.T) {
	var pe payoff
	simulate(&pe, 0, 2200, steady(2500, 6000))
	if !pe.noPay.Load() || pe.gap != payoffMaxProbe {
		t.Fatalf("after 2 200 tokens: noPay %v, next probe after %d refusals; want a refusing entry at the end of its schedule",
			pe.noPay.Load(), pe.gap)
	}
	forked, _ := simulate(&pe, 2200, 2700, steady(25_000, 6000))
	if len(forked) == 0 || forked[0] > 2200+384 {
		t.Fatalf("grown region forked at %v, want from within 384 tokens of token 2 200", forked)
	}
	if want := 2700 - forked[0]; len(forked) < want-want/(2*payoffWindow)-1 || pe.noPay.Load() {
		t.Fatalf("grown region forked %d of the %d tokens after its first fork", len(forked), want)
	}
}

// TestPayoffRecoversFromABadSpell: while the host runs the two threads one
// after the other every join waits for the whole child, and refusing is
// right; once they run side by side again the first probe — forks that
// cost a tenth of what they buy — fills half the window and outweighs the
// spell. (loop-rollback read 1.00x instead of 1.64x in one paired run of
// five while a verdict learned in a spell stood.)
func TestPayoffRecoversFromABadSpell(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pe payoff
	chunk := func(cost int64) func(int) simToken {
		return func(int) simToken {
			return simToken{inline: 1_100_000, cost: cost, committed: rng.Float64() >= 0.25}
		}
	}
	simulate(&pe, 0, 200, chunk(45_000))
	if pe.noPay.Load() {
		t.Fatal("refusing before the spell")
	}
	simulate(&pe, 200, 400, chunk(1_300_000))
	if !pe.noPay.Load() {
		t.Fatalf("still forking after 200 joins that each waited a whole chunk (gain %d cost %d)", pe.gain(), pe.cost.mean())
	}
	forked, _ := simulate(&pe, 400, 1000, chunk(150_000))
	if len(forked) == 0 || forked[0] > 400+2*payoffMaxProbe/16 || pe.noPay.Load() {
		t.Fatalf("after the spell forked at %v..., noPay %v: want forking again from the first probe", forked[:min(len(forked), 4)], pe.noPay.Load())
	}
	if want := 1000 - forked[0]; len(forked) < want-want/(2*payoffWindow)-1 {
		t.Fatalf("after the spell %d of %d tokens forked", len(forked), want)
	}
}

// TestPayoffRefreshesAStaleInlineAverage: a stage whose only inline runs
// were its two cold first tokens (36 us for 1 us of work) looks worth its
// 3 us fork/join for ever, since a driver that commits every fork never runs
// it inline again. One fork after 2·payoffWindow joins is refused so that it
// does, and once the inline window holds nineteen of those runs the one
// cold run it does not drop no longer outweighs them.
func TestPayoffRefreshesAStaleInlineAverage(t *testing.T) {
	var pe payoff
	forked, _ := simulate(&pe, 0, 4000, func(i int) simToken {
		if i < 2 {
			return simToken{inline: 36_000, cost: 3000, committed: false}
		}
		return simToken{inline: 1000, cost: 3000, committed: true}
	})
	if !pe.noPay.Load() || len(forked) > 36*2*payoffWindow {
		t.Fatalf("%d of 4 000 tokens forked, noPay %v (inline %d cost %d)", len(forked), pe.noPay.Load(), pe.inline.mean(), pe.cost.mean())
	}
}

// groupToken is loop-memory's {pass 2 + fold} group as measured on two
// vCPUs: 27 us inline; a warm fork/join at 9-14 us for half the
// joins, up to 24 us for the next quarter and up to 48 us for the last; a
// cold one — its fork woke a worker the refusals parked — at 34-60 us.
func groupToken(rng *rand.Rand) func(int) simToken {
	return func(int) simToken {
		tk := simToken{inline: 27_000, coldCost: 34_000 + rng.Int63n(26_000), committed: true}
		switch q := rng.Intn(4); {
		case q < 2:
			tk.cost = 9_000 + rng.Int63n(5_000)
		case q == 2:
			tk.cost = 14_000 + rng.Int63n(10_000)
		default:
			tk.cost = 24_000 + rng.Int63n(24_000)
		}
		return tk
	}
}

// TestPayoffBurstsRejudgeOnWarmJoins: a group that learned its verdict in a
// bad spell (every join 60 us) refuses; once the host runs the threads side
// by side again a probe is a run of forks whose warm joins — 19.5 us on
// average against a 27 us gain — replace the spell's in the window, and its
// cold first join is the sample the window drops. Within three probe gaps
// the group forks again, and stays forking: the 64-sample window does not
// flip with the warm joins' spread.
func TestPayoffBurstsRejudgeOnWarmJoins(t *testing.T) {
	const resumed = 200 + 3*payoffMaxProbe
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pe payoff
		simulate(&pe, 0, 200, func(int) simToken { return simToken{inline: 27_000, cost: 60_000, committed: true} })
		if !pe.noPay.Load() {
			t.Fatalf("seed %d: still forking after a spell in which every join lost", seed)
		}
		simulate(&pe, 200, resumed, groupToken(rng))
		if pe.noPay.Load() {
			t.Fatalf("seed %d: still refusing %d tokens after the spell (gain %d, cost %d)",
				seed, resumed-200, pe.gain(), pe.cost.mean())
		}
		forked, refused := simulate(&pe, resumed, resumed+3000, groupToken(rng))
		if refused != 0 || len(forked) < 3000-3000/(2*payoffWindow)-1 {
			t.Fatalf("seed %d: %d of 3 000 tokens forked, %d refused", seed, len(forked), refused)
		}
	}
}

// TestPayoffProbesPriceTheirJoinsWithoutTheWakeUp: a probe's first fork
// wakes the worker that the refusals parked, so its join costs what the
// wake-up took on top of a warm one — 150 us where a warm join costs
// 12 us, five gains of a 27 us group. Charged in full, that one join spent
// every probe's loss budget and a group refused for ever once a bad spell
// had taught it to. Charged without the wake-up, a group whose warm joins
// pay forks again from its second probe at the latest, while a body whose
// warm forks lose — 40 us against a 10 us region — still stops each probe
// after two forks.
func TestPayoffProbesPriceTheirJoinsWithoutTheWakeUp(t *testing.T) {
	// bursts are the runs of consecutive tokens in forked.
	bursts := func(forked []int) (lens []int) {
		for i, tok := range forked {
			if i == 0 || forked[i-1] != tok-1 {
				lens = append(lens, 0)
			}
			lens[len(lens)-1]++
		}
		return lens
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pe payoff
		simulate(&pe, 0, 200, func(int) simToken { return simToken{inline: 27_000, cost: 60_000, committed: true} })
		if !pe.noPay.Load() {
			t.Fatalf("seed %d: still forking after a spell in which every join lost", seed)
		}
		group := func(int) simToken {
			wake := 130_000 + rng.Int63n(20_000)
			return simToken{inline: 27_000, cost: 9_000 + rng.Int63n(6_000), coldCost: 12_000 + wake, wake: wake, committed: true}
		}
		const resumed = 200 + 3*payoffMaxProbe
		forked, _ := simulate(&pe, 200, resumed, group)
		// A probe is at most payoffWindow forks: the first longer run is the
		// group forking again.
		lens := bursts(forked)
		first := slices.IndexFunc(lens, func(n int) bool { return n > payoffWindow })
		if first < 0 || first > 1 {
			t.Fatalf("seed %d: after the spell the group forked in runs of %v (gain %d cost %d): want forking again from its second probe at the latest",
				seed, lens, pe.gain(), pe.cost.mean())
		}
		if forked, refused := simulate(&pe, resumed, resumed+3000, group); refused != 0 || len(forked) < 3000-3000/(2*payoffWindow)-1 {
			t.Fatalf("seed %d: %d of 3 000 tokens forked, %d refused", seed, len(forked), refused)
		}

		pe = payoff{}
		forked, _ = simulate(&pe, 0, 6000, func(int) simToken {
			wake := 130_000 + rng.Int63n(20_000)
			return simToken{inline: 10_000, cost: 40_000, coldCost: 40_000 + wake, wake: wake, committed: true}
		})
		lens = bursts(forked)
		if !pe.noPay.Load() || len(lens) < 2 || lens[0] != payoffWindow || slices.Max(lens[1:]) > 2 {
			t.Fatalf("seed %d: a losing body forked in runs of %v, noPay %v: want %d forks to learn, then probes of at most two",
				seed, lens, pe.noPay.Load(), payoffWindow)
		}
	}
}

// TestPayoffBurstsDoNoHarm: probes must not talk a point whose warm forks
// lose into forking. Whether a fork loses steadily, with a cold first join
// that loses little, or only on average (half the joins cost a third of the
// gain, half two and a half times it), the probes cost under 5 % of the
// attempts — with their cold first joins charged without the wake-up, as
// the first and last cases' are.
func TestPayoffBurstsDoNoHarm(t *testing.T) {
	for _, tc := range []struct {
		name string
		tk   func(rng *rand.Rand) simToken
	}{
		{"steady", func(*rand.Rand) simToken {
			return simToken{inline: 10_000, cost: 15_000, coldCost: 40_000, wake: 25_000, committed: true}
		}},
		{"cheap cold", func(*rand.Rand) simToken {
			return simToken{inline: 10_000, cost: 15_000, coldCost: 12_000, committed: true}
		}},
		{"tail", func(rng *rand.Rand) simToken {
			return simToken{inline: 27_000, cost: []int64{9_000, 70_000}[rng.Intn(2)], coldCost: 40_000, wake: 31_000, committed: true}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var pe payoff
				const tokens = 10_000
				forked, refused := simulate(&pe, 0, tokens, func(int) simToken { return tc.tk(rng) })
				if 100*refused < 95*(tokens-1) {
					t.Fatalf("seed %d: %d forks, %d of %d attempts refused (gain %d cost %d)", seed, len(forked), refused, tokens-1, pe.gain(), pe.cost.mean())
				}
			}
		})
	}
}

// TestPayoffOutlivesPointIDs: the estimate is a field of the body's
// record — the same key finds it again, verdict, probe schedule and
// windows included, at the body's next driver call and after ResetStats and
// Recycle, while what was a verdict on the call (disabled, faults) clears
// every time. A second key has its own.
func TestPayoffOutlivesPointIDs(t *testing.T) {
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	const k1, k2 = uintptr(0x401000), uintptr(0x402000)
	p1, p2 := rt.PointFor(k1), rt.PointFor(k2)
	e1, e2 := rt.points[p1].estimate(), rt.points[p2].estimate()
	if e1 == nil || e2 == nil || e1 == e2 {
		t.Fatalf("the two bodies' estimates are %p and %p, want two distinct ones", e1, e2)
	}
	simulate(e1, 0, 100, steady(2500, 6000))
	gap, joins := e1.gap, e1.cost.n
	if !e1.noPay.Load() || e2.noPay.Load() {
		t.Fatalf("noPay %v / %v after refusing on the first key only", e1.noPay.Load(), e2.noPay.Load())
	}
	for _, between := range []struct {
		name string
		do   func()
	}{
		{"a second call", func() {}},
		{"ResetStats", rt.ResetStats},
		{"Recycle", rt.Recycle},
	} {
		for i := 0; i < faultDisableThreshold; i++ {
			rt.points[p1].observe(execOutcome{fault: true})
		}
		if _, _, disabled := rt.PointProfile(p1); !disabled {
			t.Fatalf("%s: test setup: the faults did not disable the point", between.name)
		}
		between.do()
		if got := rt.PointFor(k1); got != p1 {
			t.Fatalf("after %s the first key is point %d, was %d", between.name, got, p1)
		}
		if _, _, disabled := rt.PointProfile(p1); disabled || rt.points[p1].faults.Load() != 0 {
			t.Fatalf("after %s the call's verdict survived: disabled %v, %d faults", between.name, disabled, rt.points[p1].faults.Load())
		}
		if got := rt.points[p1].estimate(); got != e1 || !e1.noPay.Load() || e1.gap != gap || e1.cost.n != joins || joins < payoffWindow {
			t.Fatalf("after %s the first key found estimate %p (noPay %v, probe gap %d, joins %d), want %p still refusing on its schedule",
				between.name, got, e1.noPay.Load(), e1.gap, e1.cost.n, e1)
		}
	}
	if rt.points[NumPoints-1].estimate() != nil {
		t.Fatal("a point no body was interned at keeps an estimate")
	}
}

// TestPayoffInactiveUnderVirtualTiming: under virtual timing nothing is
// bound, timed or refused — the figures stay a function of the cost model.
func TestPayoffInactiveUnderVirtualTiming(t *testing.T) {
	rt := newRT(t, 1, nil)
	p := rt.PointFor(0x401000)
	if rt.points[p].estimate() != nil {
		t.Fatal("an estimate is kept under virtual timing")
	}
	rt.Run(func(t0 *Thread) {
		if span := t0.StartInline(p); span != (InlineSpan{}) {
			t.Errorf("StartInline measures under virtual timing: %+v", span)
		}
		for i := 0; i < 4*payoffWindow; i++ {
			ranks := make([]Rank, p+1)
			h := t0.ForkBody(ranks, p, OutOfOrder)
			if h == nil {
				t.Fatalf("fork %d refused", i)
			}
			h.Start(func(*Thread) uint32 { return 0 })
			t0.StartInline(p).Stop()
			t0.Join(ranks, p)
		}
	})
	if ps := rt.Stats().PerPoint[p]; ps.Commits != 4*payoffWindow || ps.RefusedNoPay != 0 || ps.InlineNS != 0 || ps.CostNS != 0 {
		t.Fatalf("PerPoint %+v, want %d commits and no estimate", ps, 4*payoffWindow)
	}
}

// tinyBodyKey stands for the code pointer of TestTinyLoopStopsForking's
// loop body.
const tinyBodyKey = uintptr(0x403000)

// TestTinyLoopStopsForking is the guard on real clocks: a loop in For's
// shape — fork the next chunk, run this one, join — whose body is a few
// hundred nanoseconds learns within 32 joins that forking does not pay, and
// from then on forks only to probe. The bound is the schedule's — 32 joins
// to learn and 8 probes in the fork attempts 4 096 chunks make, each of one
// fork or two — with spare; Probes counts what exploring cost.
func TestTinyLoopStopsForking(t *testing.T) {
	const chunks = 4096
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	value := func(idx int) int64 {
		x := uint64(idx)
		for i := 0; i < 64; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return int64(x)
	}
	body := func(c *Thread, arr mem.Addr, idx int) {
		c.StoreInt64(arr+mem.Addr(8*idx), value(idx))
	}
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * chunks)
		p := rt.PointFor(tinyBodyKey)
		ranks := make([]Rank, p+1)
		region := func(c *Thread) uint32 {
			body(c, c.GetRegvarAddr(0), int(c.GetRegvarInt64(1)))
			return 0
		}
		for idx := 0; idx < chunks; idx++ {
			h := (*ForkHandle)(nil)
			if idx+1 < chunks {
				if h = t0.ForkBody(ranks, p, OutOfOrder); h != nil {
					h.SetRegvarAddr(0, arr)
					h.SetRegvarInt64(1, int64(idx+1))
					h.Start(region)
				}
			}
			span := t0.StartInline(p)
			body(t0, arr, idx)
			span.Stop()
			if h != nil {
				if res := t0.Join(ranks, p); res.Committed() {
					idx++
				}
			}
		}
		for idx := 0; idx < chunks; idx++ {
			if got := t0.LoadInt64(arr + mem.Addr(8*idx)); got != value(idx) {
				t.Fatalf("chunk %d wrote %d, want %d", idx, got, value(idx))
			}
		}
	})
	s := rt.Stats()
	ps := s.PerPoint[0]
	t.Logf("race %v: %d commits, %d rollbacks, %d refused, %d probes; inline %d ns, gain %d ns, cost %d ns",
		raceflag.Enabled, s.Commits, s.Rollbacks, ps.RefusedNoPay, ps.Probes, ps.InlineNS, ps.GainNS, ps.CostNS)
	if s.Commits+s.Rollbacks > 48 || ps.RefusedNoPay < chunks/2 || ps.Probes > 16 {
		t.Fatalf("%d forks (%d probes) and %d refusals in %d chunks, want at most 48 forks and 16 probes",
			s.Commits+s.Rollbacks, ps.Probes, ps.RefusedNoPay, chunks)
	}
	if ps.InlineNS <= 0 || ps.CostNS <= ps.GainNS {
		t.Fatalf("PerPoint %+v does not show the estimate that refused", ps)
	}
}
