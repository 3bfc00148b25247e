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
	// loop-rollback). A loop-memory stage is 384 fork attempts a run, so 32
	// cold forks are 8 % of one run and none of the next.
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
	// and level with it when quiet. loop-memory needs no margin: its stages
	// read gain 6 and 12 us against cost 17-24 and 16-31, where a 10 us
	// pipeline stage reads 9.6 against 3.5, loop-compute 2 000 us against
	// 140-260 and loop-rollback 1 150 against 95-130.
	payoffNum, payoffDen = 1, 1
	// A refusing entry forks again once cost < payoffBackNum/payoffBackDen
	// of the gain, by its averages or by one probe. Its evidence is thinner
	// — one inline run in eight, cold probes for joins — and a stage's
	// inline time moves by a third with the host's fast and slow spells
	// (loop-memory's larger stage: 9.5-15 us); with no band a point near the
	// line flips with them (361 forks in a run that should have had two,
	// under an earlier, shorter memory).
	payoffBackNum, payoffBackDen = 3, 4
	// A refused entry lets one fork through after payoffFirstProbe
	// refusals, then after twice as many, up to payoffMaxProbe, so that
	// forking getting cheaper, or committing more often, is noticed: a probe
	// meets a parked worker and costs loop-memory 12-30 us, so the first
	// 2 000 refusals (7 probes) spend under 0.2 % of their tokens' 110 ms
	// and every 1 024 after that 0.04 %. A probe is a cold fork, so it
	// overstates what a warm one costs: the schedule notices a point whose
	// forks pay even cold (loop-rollback after a bad spell of the host: one
	// paired run in five read 1.00x instead of 1.64x before a good probe
	// was believed at once), not one that would just about pay warm.
	payoffFirstProbe = 16
	payoffMaxProbe   = 1024
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

	// payoffOne is 1.0 in the fixed point the commit share is kept in.
	payoffOne = 1 << 10
)

// payoff is one driver body's pay-off estimate. Only the non-speculative
// thread writes it (pointState.estimate; a runtime has one run at a time);
// speculative threads read noPay alone, hence its type.
type payoff struct {
	// inline averages what the region costs the non-speculative thread when
	// it runs it itself (every timed inline execution, forked or refused),
	// cost what a fork costs that thread: Fork entry to Start exit plus
	// Join entry to locals restored, so a late child's wait is in it. paid
	// is the share of joins that committed, in units of payoffOne. A
	// rollback lowers paid — it bought nothing — and is not added to cost:
	// the lost time is the re-execution, which inline already measures.
	// inlines and joins count the samples, up to payoffMemory.
	inline, cost, paid int64
	inlines, joins     int32

	// forkNS is the cost of forks made and not yet joined.
	forkNS int64

	// refused counts the refusals since the last fork let through, probe is
	// how many it takes before the next one; untimed counts the inline
	// executions StartInline let go by, stale the joins since it last timed
	// one.
	refused, probe, untimed, stale int32

	// noPay is the verdict, recomputed at every sample — not a latch.
	noPay atomic.Bool
}

// reset starts the estimate over: the record stands for a new body.
func (pe *payoff) reset() {
	pe.inline, pe.cost, pe.paid, pe.inlines, pe.joins = 0, 0, 0, 0, 0
	pe.forkNS, pe.refused, pe.probe, pe.untimed, pe.stale = 0, 0, 0, 0, 0
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

// gain is what a fork buys on average: the inline time it takes off the
// non-speculative thread when it commits, nothing when it rolls back.
func (pe *payoff) gain() int64 { return pe.inline * pe.paid / payoffOne }

// judge recomputes the verdict from the averages. An entry with no inline
// sample has nothing to compare a fork with and keeps forking.
func (pe *payoff) judge() {
	was := pe.noPay.Load()
	num, den := int64(payoffNum), int64(payoffDen)
	if was {
		num, den = payoffBackNum, payoffBackDen
	}
	noPay := pe.joins >= payoffMemory && pe.inlines > 0 && den*pe.cost > num*pe.gain()
	if noPay && !was {
		// The schedule only lengthens: an entry that was talked out of a
		// refusal once and refuses again is probed less eagerly.
		pe.refused, pe.probe = 0, max(pe.probe, payoffFirstProbe)
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

// observeFork adds a fork's cost to the next join's.
func (pe *payoff) observeFork(ns int64) { pe.forkNS += ns }

// observeJoin folds in one join: what it and the forks since the last one
// cost, and whether it committed.
func (pe *payoff) observeJoin(ns int64, committed bool) {
	share := int64(0)
	if committed {
		share = payoffOne
	}
	pe.paid += (share - pe.paid) / int64(min(pe.joins+1, payoffMemory))
	ns += pe.forkNS
	pe.forkNS = 0
	if pe.noPay.Load() && payoffBackDen*ns < payoffBackNum*pe.gain() {
		// A probe is a cold fork. When even that pays, the average is out
		// of date — it was learned in a spell of the host in which the two
		// threads did not run side by side, and every join waited for the
		// whole child — and 1/payoffMemory a probe would take it thousands
		// of refusals to say so.
		pe.cost = ns
	} else {
		fold(&pe.cost, &pe.joins, ns)
	}
	if pe.stale < payoffStale {
		pe.stale++
	}
	pe.judge()
}

// admit is the non-speculative thread's question at Fork: may this one go
// ahead? While the entry forks the answer is yes unless its inline average
// has gone stale; while it refuses, only when a probe is due.
func (pe *payoff) admit() bool {
	if !pe.noPay.Load() {
		if pe.stale < payoffStale {
			return true
		}
		pe.stale = 0 // one refusal, whether or not the caller times the run
		return false
	}
	pe.refused++
	return pe.refused > pe.probe
}

// forked tells a refused entry that a probe got its CPU: the next one is
// twice as far away.
func (pe *payoff) forked() {
	if pe.noPay.Load() {
		pe.refused, pe.probe = 0, min(2*pe.probe, payoffMaxProbe)
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
	if t.speculative {
		return InlineSpan{}
	}
	ps := t.rt.point(p)
	if ps == nil {
		return InlineSpan{}
	}
	pe := ps.estimate()
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
