package core

import (
	"sync/atomic"

	"repro/internal/vclock"
)

// This file is the do-no-harm guard: a fork point whose region costs the
// joining thread less to run inline than one fork/join costs it stops
// forking. Prophet chooses threads by an estimated benefit; this is the
// same premise with numbers measured at run time, on the one clock that
// matters — the non-speculative thread's, since only its time is the
// program's. Real timing only: under virtual timing no estimate is kept, no
// clock is read and nothing is refused.
//
// The estimate belongs to the driver body: it is a field of the body's fork
// point (PointFor, live.go), which every call of the body finds again, so it
// survives the driver call, ResetStats and Recycle and goes with the runtime
// at Close. A verdict re-learned on every call costs its learning forks on
// every call (ISSUE 20's prototype of that kept 94-114 forks a loop-memory
// run and stayed at 0.90-0.91). Only the drivers' forks consult it
// (ForkBody): a raw Fork on the same id — Tree's, on point 0 — forks as if
// there were no guard.
//
// A join is warm or cold. It is cold when its fork found the worker parked
// (Start woke it): the wake-up is in its cost, and a worker parks because
// nothing was forked for a while — after the guard's own refusals, at a
// driver call's first fork, in the hand-off's slow phases. Cold joins are
// averaged apart and the verdict weighs the warm average, unless most joins
// are cold (a body forked too rarely for the worker to wait for it, or one
// proc, where no worker spins): then the cold one is what a fork costs.
//
// The numbers beside the constants were read on the two-vCPU container the
// guard was written on (go1.24, GOMAXPROCS 2).

const (
	// payoffMemory is the averages' memory in samples — the running mean of
	// the first payoffMemory samples, an exponential average of weight
	// 1/payoffMemory after — and the number of joins an entry sees before
	// its first verdict. Both are set by the hand-off, not by the points:
	// its first joins measure a parked worker and unlearned spin budgets (a
	// pipeline whose joins settle at 2-4 us opens with 43-204 us, then
	// 10-30, for up to six tokens), and on a two-vCPU host it alternates
	// between phases of ten to thirty joins that wait for the whole child
	// (a park put both goroutines on one P) and phases that overlap. An
	// average that remembers eight joins, judged at the eighth, turned 1.9x
	// pipelines with 30-100 us stages into 1.0x ones (and at weight 1/4,
	// with rollbacks charged to the cost, ISSUE 20's prototype lost 1-4 % on
	// loop-rollback). A loop-memory group is 792 fork attempts a run, so 32
	// learning forks are 4 % of one run and none of the next.
	payoffMemory = 32
	// payoffClamp bounds a sample to this multiple of its average before it
	// is folded in. About one join in thirty on loop-compute waits a whole
	// chunk whether or not it commits (ISSUE 20: 160 of 4 800 joins over
	// 0.5 ms); against a 6 us average one such join, unclamped, reads as a
	// point that stopped paying.
	payoffClamp = 4
	// A fork is refused while cost > payoffNum/payoffDen of the gain: while
	// it measurably loses. For a loop, cost > gain is exactly break-even —
	// a pair of chunks takes 2 inline and 1 + wait + (1 - paid) forked —
	// and a margin below that gives up what the grey zone still buys: at
	// 3/4, loop-rollback read 6-18 % under the always-forking parent in six
	// pairs of six while the host was noisy (join waits around 0.6 chunks)
	// and level with it when quiet. loop-memory's {pass 2 + fold} group
	// reads a gain of 20-22 us against warm joins averaging 8-14 us (its cold
	// ones: 34-60 us); a 10 us pipeline stage reads 9.6 against 3.5,
	// loop-compute 2 000 us against 140-260 and loop-rollback 1 150 against
	// 95-130.
	payoffNum, payoffDen = 1, 1
	// A refusing entry forks again once its averages say cost <
	// payoffBackNum/payoffBackDen of the gain (or a burst says it pays; see
	// payoffBurst). Their evidence is thinner — one inline run in eight,
	// probes for joins — and a stage's inline time moves by a third with the
	// host's fast and slow spells (loop-memory's pass 2: 9.5-15 us); with no
	// band a point near the line flips with them (361 forks in a run that
	// should have had two, under an earlier, shorter memory). The same band
	// is what moves Pipeline's stage cut.
	payoffBackNum, payoffBackDen = 3, 4
	// A refused entry lets a probe through after payoffFirstProbe refusals,
	// then after twice as many, up to payoffMaxProbe, so that forking
	// getting cheaper, or committing more often, is noticed: the first 2 000
	// refusals (7 probes) and every 1 024 after that. A probe whose burst
	// resumes the entry starts the schedule over.
	payoffFirstProbe = 16
	payoffMaxProbe   = 1024
	// A probe is a burst of up to payoffBurst forks on consecutive attempts.
	// Its first fork wakes a worker the refusals parked, so a probe of one
	// fork only ever measured a cold one. The burst is judged on its warm
	// joins: the entry forks again when their mean — each clamped to
	// payoffBurstClamp gains, so that one join caught by a busy host cannot
	// sink it — is under the gain, and the warm average restarts from it.
	// The burst stops as soon as its warm joins have lost more than one
	// gain, or at a cold join dearer than payoffClamp gains (a wake-up no
	// warm fork could be worth): a body worth less than its fork/join spends
	// either on its first join, so its probe is still one fork.
	payoffBurst      = 16
	payoffBurstClamp = 2
	// While an entry refuses, one inline execution in payoffInlineEvery is
	// timed: a clock read is 36 ns and a span takes two, a fifth of a
	// 200 ns loop body if every chunk paid it. A region that grows tenfold
	// is still seen within some two hundred executions.
	payoffInlineEvery = 8
	// While an entry forks, a driver that commits every fork never runs the
	// region inline again: a Pipeline stage would be judged for a million
	// tokens on its first two, which were cold (36 us for a body of one
	// store under the race detector). After payoffStale joins without an
	// inline sample one fork is refused, so the region runs inline and is
	// timed: 1.6 % of what the stage's forks buy. For and Reduce run a
	// chunk inline between any two forks and never get there.
	payoffStale = 64

	// payoffOne is 1.0 in the fixed point the shares are kept in.
	payoffOne = 1 << 10
)

// payoff is one driver body's pay-off estimate. Only the non-speculative
// thread writes it (pointState.estimate; a runtime has one run at a time);
// speculative threads read noPay alone, hence its type.
type payoff struct {
	// inline averages what the region costs the non-speculative thread when
	// it runs it itself (every timed inline execution, forked or refused),
	// cost what a warm fork costs that thread and coldCost a cold one: Fork
	// entry to Start exit plus Join entry to locals restored, so a late
	// child's wait is in it. paid is the share of joins that committed and
	// cold the share that were cold, in units of payoffOne. A rollback
	// lowers paid — it bought nothing — and is not added to cost: the lost
	// time is the re-execution, which inline already measures. inlines,
	// joins, warms and colds count the samples, up to payoffMemory.
	inline, cost, coldCost, paid, cold int64
	inlines, joins, warms, colds       int32

	// forkNS is the cost of forks made and not yet joined, forkCold whether
	// one of them woke its worker.
	forkNS   int64
	forkCold bool

	// refused counts the refusals since the last probe, probe is how many it
	// takes before the next one; untimed counts the inline executions
	// StartInline let go by, stale the joins since it last timed one.
	refused, probe, untimed, stale int32

	// The burst under way (payoffBurst): the forks it may still make, its
	// joins still out, its warm joins, what those cost together (clamped)
	// and beyond what they bought.
	burst, burstOut, burstWarm int32
	burstWarmNS, burstLoss     int64

	// next is the estimate of the region a fork here runs after its own, nil
	// for none (Thread.Fuse): a Pipeline group's next stage.
	next *payoff

	// noPay is the verdict, recomputed at every sample — not a latch.
	noPay atomic.Bool
}

// reset starts the estimate over: the record stands for a new body. The
// verdict is cleared by its atomic store, for the speculative threads.
func (pe *payoff) reset() {
	pe.inline, pe.cost, pe.coldCost, pe.paid, pe.cold = 0, 0, 0, 0, 0
	pe.inlines, pe.joins, pe.warms, pe.colds = 0, 0, 0, 0
	pe.forkNS, pe.forkCold, pe.next = 0, false, nil
	pe.refused, pe.probe, pe.untimed, pe.stale = 0, 0, 0, 0
	pe.burst, pe.burstOut, pe.burstWarm, pe.burstWarmNS, pe.burstLoss = 0, 0, 0, 0, 0
	pe.noPay.Store(false)
}

// fold takes sample into the average of the *n samples before it (see
// payoffMemory), clamped to payoffClamp times that average.
func fold(avg *int64, n *int32, sample int64) {
	if *n == 0 {
		*avg = sample
	} else {
		*avg += (min(sample, payoffClamp**avg) - *avg) / int64(min(*n+1, payoffMemory))
	}
	if *n < payoffMemory {
		*n++
	}
}

// regionNS is what the region a fork here runs costs inline: its own average
// and those of the regions fused after it.
func (pe *payoff) regionNS() int64 {
	ns := pe.inline
	for q, n := pe.next, 0; q != nil && n < NumPoints; q, n = q.next, n+1 {
		ns += q.inline
	}
	return ns
}

// gain is what a fork buys on average: the inline time it takes off the
// non-speculative thread when it commits, nothing when it rolls back.
func (pe *payoff) gain() int64 { return pe.regionNS() * pe.paid / payoffOne }

// charged is the cost the verdict weighs: the warm average, or the cold one
// while most joins are cold.
func (pe *payoff) charged() int64 {
	if pe.warms == 0 || 2*pe.cold > payoffOne {
		return pe.coldCost
	}
	return pe.cost
}

// judge recomputes the verdict from the averages. An entry with no inline
// sample has nothing to compare a fork with and keeps forking.
func (pe *payoff) judge() {
	was := pe.noPay.Load()
	num, den := int64(payoffNum), int64(payoffDen)
	if was {
		num, den = payoffBackNum, payoffBackDen
	}
	noPay := pe.joins >= payoffMemory && pe.inlines > 0 && den*pe.charged() > num*pe.gain()
	if noPay && !was {
		// The schedule only lengthens: an entry that was talked out of a
		// refusal once and refuses again is probed less eagerly.
		pe.refused, pe.probe = 0, max(pe.probe, payoffFirstProbe)
	}
	if !noPay {
		pe.burst, pe.burstOut = 0, 0
	}
	pe.noPay.Store(noPay)
}

// timeInline reports whether the inline execution about to start is one to
// time: all of them while the entry forks, one in payoffInlineEvery while it
// refuses.
func (pe *payoff) timeInline() bool {
	if !pe.noPay.Load() {
		return true
	}
	if pe.untimed++; pe.untimed < payoffInlineEvery {
		return false
	}
	pe.untimed = 0
	return true
}

// observeInline folds in one inline execution of the region.
func (pe *payoff) observeInline(ns int64) {
	fold(&pe.inline, &pe.inlines, ns)
	pe.stale = 0
	pe.judge()
}

// observeFork adds a fork's cost to the next join's; cold says it woke its
// worker.
func (pe *payoff) observeFork(ns int64, cold bool) {
	pe.forkNS += ns
	pe.forkCold = pe.forkCold || cold
}

// observeJoin folds in one join: what it and the forks since the last one
// cost, and whether it committed. It reports whether the join was cold.
func (pe *payoff) observeJoin(ns int64, committed bool) (cold bool) {
	ns, cold = ns+pe.forkNS, pe.forkCold
	pe.forkNS, pe.forkCold = 0, false
	n := int64(min(pe.joins+1, payoffMemory))
	pe.paid += (share(committed) - pe.paid) / n
	pe.cold += (share(cold) - pe.cold) / n
	if pe.joins < payoffMemory {
		pe.joins++
	}
	if cold {
		fold(&pe.coldCost, &pe.colds, ns)
	} else {
		fold(&pe.cost, &pe.warms, ns)
	}
	if pe.stale < payoffStale {
		pe.stale++
	}
	if pe.burstOut > 0 {
		pe.burstOut--
		pe.probed(ns, committed, cold)
	}
	pe.judge()
	return cold
}

// share is one sample of a share kept in units of payoffOne.
func share(yes bool) int64 {
	if yes {
		return payoffOne
	}
	return 0
}

// probed tallies one join of a burst. The burst stops forking once its
// warm joins have lost more than a fork's gain, or at a cold one that cost
// more than payoffClamp gains; after its last join the mean of its warm
// joins decides whether the entry forks again.
func (pe *payoff) probed(ns int64, committed, cold bool) {
	gain := pe.gain()
	if cold {
		if ns > payoffClamp*gain {
			pe.burst = 0
		}
	} else {
		pe.burstLoss += ns
		if committed {
			pe.burstLoss -= pe.regionNS()
		}
		pe.burstWarm++
		pe.burstWarmNS += min(ns, payoffBurstClamp*gain)
	}
	if pe.burstLoss > gain {
		pe.burst = 0
	}
	if pe.burst > 0 || pe.burstOut > 0 || pe.burstWarm == 0 || pe.burstWarmNS >= gain*int64(pe.burstWarm) {
		return
	}
	// The warm forks pay now. The averages were learned in another spell of
	// the host, and at 1/payoffMemory a join it would take them thousands of
	// refusals to say so; a point shown to pay is probed from the start of
	// the schedule again should it refuse later.
	pe.cost, pe.cold, pe.probe = pe.burstWarmNS/int64(pe.burstWarm), 0, 0
	pe.noPay.Store(false)
}

// admit is the non-speculative thread's question at Fork: may this one go
// ahead? While the entry forks the answer is yes unless its inline average
// has gone stale; while it refuses, only during a burst or when a probe is
// due.
func (pe *payoff) admit() bool {
	if !pe.noPay.Load() {
		if pe.stale < payoffStale {
			return true
		}
		pe.stale = 0 // one refusal, whether or not the caller times the run
		return false
	}
	if pe.burst > 0 {
		return true
	}
	pe.refused++
	return pe.refused > pe.probe
}

// forked tells a refusing entry that a fork it admitted got its CPU: a
// probe starts a burst, and the next probe is twice as far away.
func (pe *payoff) forked() {
	if !pe.noPay.Load() {
		return
	}
	if pe.burst == 0 {
		pe.refused, pe.probe = 0, min(2*pe.probe, payoffMaxProbe)
		pe.burst, pe.burstWarm, pe.burstWarmNS, pe.burstLoss = payoffBurst, 0, 0, 0
	}
	pe.burst--
	pe.burstOut++
}

// estimate returns point p's pay-off estimate when this thread may use it:
// the non-speculative thread's, at a point a body was interned at, under
// real timing. nil otherwise.
func (t *Thread) estimate(p int) *payoff {
	if t.speculative {
		return nil
	}
	if ps := t.rt.point(p); ps != nil {
		return ps.estimate()
	}
	return nil
}

// InlineNS reports what point p's region costs the non-speculative thread to
// run itself, in nanoseconds: the average StartInline keeps. It is 0 when
// none is known — under virtual timing, on a speculative thread, at a point
// no body was interned at, before the first timed run. Pipeline cuts its
// stages into groups by it.
func (t *Thread) InlineNS(p int) int64 {
	if pe := t.estimate(p); pe != nil {
		return pe.inline
	}
	return 0
}

// Fuse tells the estimates of points ps that a fork at ps[0] runs their
// regions in turn, so that what it buys is their inline times together.
// Pipeline fuses the stages of a group. A no-op wherever InlineNS knows
// nothing.
func (t *Thread) Fuse(ps []int) {
	for i, p := range ps {
		if pe := t.estimate(p); pe != nil {
			pe.next = nil
			if i+1 < len(ps) {
				pe.next = t.estimate(ps[i+1])
			}
		}
	}
}

// InlineSpan times one inline execution of a fork point's region; see
// Thread.StartInline. It is a value: starting and stopping one allocates
// nothing.
type InlineSpan struct {
	pe    *payoff
	clock *vclock.Clock
	start vclock.Cost
}

// StartInline brackets the non-speculative thread running point p's region
// itself — a stage, chunk or fold that was not forked, or whose fork rolled
// back. The drivers put it around every such execution; the time is what a
// fork on p is worth, which Fork weighs against what forks on p have cost.
// It measures nothing on a speculative thread, under virtual timing, or on
// a point no body was interned at. A span abandoned by a panic is simply
// dropped.
func (t *Thread) StartInline(p int) InlineSpan {
	pe := t.estimate(p)
	if pe == nil || !pe.timeInline() {
		return InlineSpan{}
	}
	return InlineSpan{pe: pe, clock: t.clock, start: t.clock.Now()}
}

// Stop ends the measurement.
func (s InlineSpan) Stop() {
	if s.pe != nil {
		s.pe.observeInline(s.clock.Now() - s.start)
	}
}
