package core

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/vclock"
)

// This file is the do-no-harm guard: a driver body whose region costs the
// non-speculative thread less to run inline than a fork/join costs it stops
// forking — Prophet's estimated benefit, measured on the one clock that is
// the program's. Real timing only; under virtual timing nothing is kept,
// timed or refused. The estimate is a field of the body's fork point
// (PointFor, live.go) and lives until Close. Only the drivers' forks consult
// it (ForkBody): a raw Fork on the same id forks as if there were no guard.
//
// One rule decides. Two windows hold a body's last inline times and its last
// fork/join costs, with which of those joins committed; each reads as its
// mean without its largest sample — the join that waited a whole chunk, a
// run's first fork that woke a parked worker. Once payoffWindow joins are
// in, a fork is refused while cost > inline × paid. A refusing body probes
// with a run of forks whose joins land in the same window. The numbers
// below were read on two vCPUs (go1.24, GOMAXPROCS 2).
const (
	// payoffWindow is the joins before the first verdict; each window holds
	// twice as many. A run's first join meets a parked worker (8-43 us on
	// loop-memory, warm ones 3 at the median). Stretches of ten or more
	// joins with both threads on one P, which this window was sized
	// against, came 3 times in 60 loop-memory runs once the gate spun a
	// fixed 100 us (16 before): an 8-join memory made 1.9x pipelines 1.0x,
	// a 32-sample ring flipped loop-memory's simulated group once in
	// 3 000 tokens, 64 did not. It also sets the first probe gap, the
	// longest probe, and the inline sampling: one run in payoffWindow timed
	// while refusing, one fork refused after 2·payoffWindow joins with none.
	payoffWindow = 32
	// payoffMaxProbe is the longest probe gap, in refusals: a losing body
	// spends under 0.2 % of its attempts on probes after the first 2 000.
	payoffMaxProbe = 1024
	// payoffProbeLoss is the loss, in gains, that stops a probe: a body whose
	// forks each lose more than a gain spends it in two. A probe's cold first
	// join is charged without the wake-up (observeJoin); with it (up to
	// 150 us on loop-memory's group, warm joins 3-20 us) it spent the budget.
	payoffProbeLoss = 2
)

// window holds the last 2·payoffWindow samples of one quantity, with their
// sum and largest kept as they arrive: reading it is O(1) (Pipeline asks for
// every stage on every token), and only evicting the largest rescans.
type window struct {
	ring     [2 * payoffWindow]int64
	n, at    int32
	sum, max int64
}

func (w *window) add(x int64) {
	old := w.ring[w.at]
	w.ring[w.at] = x
	w.at = (w.at + 1) % int32(len(w.ring))
	if w.n < int32(len(w.ring)) {
		w.n, old = w.n+1, 0
	}
	w.sum += x - old
	if x >= w.max || w.n == 1 {
		w.max = x
	} else if old == w.max {
		w.max = slices.Max(w.ring[:w.n])
	}
}

// mean is the mean without the largest sample (of one sample, that one).
func (w *window) mean() int64 {
	if w.n < 2 {
		return w.sum
	}
	return (w.sum - w.max) / int64(w.n-1)
}

// payoff is one driver body's pay-off estimate. Only the non-speculative
// thread writes it; speculative threads read noPay alone, hence its type.
type payoff struct {
	// inline holds what the region cost the non-speculative thread run
	// inline, cost what a fork cost it: Fork entry to Start exit plus Join
	// entry to locals restored, a late child's wait included. Bit i of paid
	// says the i-th latest join committed: a rollback bought nothing, and its
	// lost time is the re-execution, which inline measures.
	inline, cost window
	paid         uint64
	// forkNS is the cost of forks not yet joined, forkCold whether one woke
	// its worker (a statistic the verdict ignores).
	forkNS   int64
	forkCold bool
	// refused counts the refusals since the last probe, gap those due before
	// the next; probe is the forks the probe under way may still make, loss
	// what its joins cost beyond what they bought. stale counts the inline
	// runs let go and the joins made since a run was last timed.
	refused, gap, probe, stale int32
	loss                       int64
	// next is the estimate of the region a fork here runs after its own
	// (Thread.Fuse): a Pipeline group's next stage.
	next *payoff
	// noPay is the verdict, recomputed at every sample — not a latch.
	noPay atomic.Bool
}

// reset starts over for a new body, clearing noPay atomically for readers.
func (pe *payoff) reset() {
	pe.inline, pe.cost, pe.paid = window{}, window{}, 0
	pe.forkNS, pe.forkCold, pe.next = 0, false, nil
	pe.refused, pe.gap, pe.probe, pe.stale, pe.loss = 0, 0, 0, 0, 0
	pe.noPay.Store(false)
}

// regionNS is what the region a fork here runs costs inline: its own time
// and those of the regions fused after it.
func (pe *payoff) regionNS() int64 {
	ns := pe.inline.mean()
	for q, n := pe.next, 0; q != nil && n < NumPoints; q, n = q.next, n+1 {
		ns += q.inline.mean()
	}
	return ns
}

// gain is what a fork buys on average: the region's inline time for a
// commit, nothing for a rollback.
func (pe *payoff) gain() int64 {
	return pe.regionNS() * int64(bits.OnesCount64(pe.paid)) / max(int64(pe.cost.n), 1)
}

// judge recomputes the verdict from the windows. A body with no inline
// sample has nothing to weigh a fork against and keeps forking; one that
// starts refusing probes first after payoffWindow refusals.
func (pe *payoff) judge() {
	noPay := pe.cost.n >= payoffWindow && pe.inline.n > 0 &&
		pe.cost.mean()*int64(pe.cost.n) > pe.regionNS()*int64(bits.OnesCount64(pe.paid))
	if noPay && !pe.noPay.Load() {
		pe.refused, pe.gap = 0, payoffWindow
	}
	if !noPay {
		pe.probe = 0
	}
	pe.noPay.Store(noPay)
}

// timeInline reports whether the inline execution about to start is to be
// timed: every one while the body forks, one in payoffWindow while it refuses.
func (pe *payoff) timeInline() bool {
	if !pe.noPay.Load() {
		return true
	}
	pe.stale++
	return pe.stale >= payoffWindow
}

// observeInline takes in one inline execution of the region.
func (pe *payoff) observeInline(ns int64) {
	pe.inline.add(ns)
	pe.stale = 0
	pe.judge()
}

// observeFork adds a fork's cost to the next join's; cold: it woke a worker.
func (pe *payoff) observeFork(ns int64, cold bool) {
	pe.forkNS += ns
	pe.forkCold = pe.forkCold || cold
}

// observeJoin takes in one join: what it and the forks since the last one
// cost, the child's wake-up, and whether it committed. A refusing body's
// cold join is charged without the wake-up: the refusals parked the worker.
// A probe stops once its joins have lost more than payoffProbeLoss gains. It
// reports whether the join was cold.
func (pe *payoff) observeJoin(ns, wakeNS int64, committed bool) (cold bool) {
	ns, cold = ns+pe.forkNS, pe.forkCold
	pe.forkNS, pe.forkCold = 0, false
	if cold && pe.noPay.Load() {
		ns = max(ns-wakeNS, 0)
	}
	pe.cost.add(ns)
	pe.paid <<= 1
	if committed {
		pe.paid |= 1
	}
	pe.stale = min(pe.stale+1, 2*payoffWindow)
	if pe.probe > 0 {
		pe.loss += ns - pe.regionNS()*int64(pe.paid&1)
		if pe.loss > payoffProbeLoss*pe.gain() {
			pe.probe = 0
		}
	}
	pe.judge()
	return cold
}

// admit is the non-speculative thread's question at Fork. While the body
// forks, yes unless 2·payoffWindow joins went by with no timed inline run;
// while it refuses, only during a probe or when one is due.
func (pe *payoff) admit() bool {
	if !pe.noPay.Load() {
		if pe.stale < 2*payoffWindow {
			return true
		}
		pe.stale = 0 // one refusal, whether or not the caller times the run
		return false
	}
	if pe.probe > 0 {
		return true
	}
	pe.refused++
	return pe.refused > pe.gap
}

// forked says an admitted fork got its CPU and reports whether it was a
// probe's. A due probe starts, and the next one is twice as far away.
func (pe *payoff) forked() (probe bool) {
	if !pe.noPay.Load() {
		return false
	}
	if pe.probe == 0 {
		pe.refused, pe.gap = 0, min(2*pe.gap, payoffMaxProbe)
		pe.probe, pe.loss = payoffWindow, 0
	}
	pe.probe--
	return true
}

// estimate returns point p's pay-off estimate on the non-speculative thread,
// at a point a body was interned at, under real timing; nil otherwise.
func (t *Thread) estimate(p int) *payoff {
	if ps := t.rt.point(p); ps != nil && !t.speculative {
		return ps.estimate()
	}
	return nil
}

// InlineNS reports what point p's region costs the non-speculative thread to
// run itself, in nanoseconds (the inline window StartInline fills); 0 under
// virtual timing, on a speculative thread, at a point no body was interned
// at, before the first timed run. Pipeline cuts its stages into groups by it.
func (t *Thread) InlineNS(p int) int64 {
	if pe := t.estimate(p); pe != nil {
		return pe.inline.mean()
	}
	return 0
}

// Fuse tells p's estimate that a fork at a point before it runs next's
// region right after p's (next -1: none), so that the fork buys their inline
// times together. Pipeline fuses the stages of a group. A no-op wherever
// InlineNS knows nothing.
func (t *Thread) Fuse(p, next int) {
	if pe := t.estimate(p); pe != nil {
		pe.next = t.estimate(next)
	}
}

// InlineSpan times one inline execution of a fork point's region (see
// Thread.StartInline); a value, so a span allocates nothing.
type InlineSpan struct {
	pe    *payoff
	clock *vclock.Clock
	start vclock.Cost
}

// StartInline brackets the non-speculative thread running point p's region
// itself — a stage, chunk or fold that was not forked, or whose fork rolled
// back. The drivers put it around every such execution: the time is what a
// fork on p is worth. It measures nothing where InlineNS knows nothing. A
// span abandoned by a panic is dropped.
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
