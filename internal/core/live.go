package core

import (
	"sync/atomic"

	"repro/internal/vclock"
)

// This file is the per-point half of the runtime's accounting: one atomic
// struct per fork/join point, updated once per finished speculative
// execution by the worker that ran it (the fold in runSpec) and read by
// everything that asks about a point — PointProfile, Summary.PerPoint, the
// fault threshold in Fork and the runaway deadline's stretch. A read taken
// right after Join returns is guaranteed to include the joined execution:
// the worker folds it in before it publishes the verdict the join waits for.
// The cost is a handful of uncontended atomic adds per execution and
// O(NumPoints) memory for the life of the runtime.

// NumPoints is the number of fork/join point ids (0..NumPoints-1).
const NumPoints = 64

// pointState is everything the runtime keeps about one fork/join point: a
// driver body once PointFor has interned one under the id, a raw point —
// a core program's own numbering — until then.
//
// Reset rule: ResetStats zeroes the counts and latency sums — the
// statistics. disabled, the fault count and the wall-latency EWMA are a
// verdict on one driver call: they clear at the body's next call (PointFor)
// and at Recycle. The body and its pay-off estimate stay until Close, or
// until a 65th body evicts them.
type pointState struct {
	// commits and rollbacks count finished speculative executions on the
	// point (squashed/NOSYNCed executions count as rollbacks); the latency
	// sums add up their occupied CPU intervals (virtual units or
	// nanoseconds).
	commits         atomic.Int64
	rollbacks       atomic.Int64
	commitLatency   atomic.Int64
	rollbackLatency atomic.Int64

	// faults counts contained panics (RollbackFault); at
	// faultDisableThreshold the point is disabled.
	faults atomic.Int64
	// wallEWMA averages the regions' wall time in nanoseconds (alpha 1/8),
	// kept only when SpecDeadline is set: runSpec stretches the deadline of
	// the point's next executions with it.
	wallEWMA atomic.Int64
	// disabled refuses further forks on the point (Fork reads it).
	disabled atomic.Bool

	// key is the body PointFor interned here, 0 for none (under pointMu).
	// guarded says pay is kept for it — real timing only — and evicted that
	// the record has changed bodies since pay was last used; see estimate.
	key     uintptr
	pay     payoff
	guarded atomic.Bool
	evicted atomic.Bool
	// refusedNoPay counts the forks the pay-off guard refused, probes those
	// it admitted while refusing, refusedNoProc those refused because every
	// proc of the host had a working thread, coldJoins the joins pay was
	// told of whose fork woke a parked worker (statistics).
	refusedNoPay  atomic.Int64
	probes        atomic.Int64
	refusedNoProc atomic.Int64
	coldJoins     atomic.Int64
}

// faultDisableThreshold is the number of contained faults (panics
// converted to RollbackFault) after which a fork point is refused until the
// body's next driver call or Recycle: repeated faults mean the region faults
// on correct re-execution schedules too, and a deterministically faulting
// kernel must degrade to (correct) sequential execution instead of
// squash-looping.
const faultDisableThreshold = 3

// execOutcome is what observe learns about one finished execution.
type execOutcome struct {
	committed bool
	fault     bool        // the region panicked
	latency   vclock.Cost // occupied interval, fork to verdict
	wallNS    int64       // region wall time; 0 when SpecDeadline is off
}

// observe folds one finished execution into the point and re-evaluates
// whether the point may still fork.
func (ps *pointState) observe(o execOutcome) {
	if o.committed {
		ps.commits.Add(1)
		ps.commitLatency.Add(int64(o.latency))
	} else {
		ps.rollbacks.Add(1)
		ps.rollbackLatency.Add(int64(o.latency))
	}
	if o.wallNS > 0 {
		ps.wallEWMA.Add((o.wallNS - ps.wallEWMA.Load()) / 8)
	}
	if o.fault && ps.faults.Add(1) >= faultDisableThreshold {
		ps.disabled.Store(true)
	}
}

// reset applies the struct's reset rule: the statistics for ResetStats, the
// verdict on the last driver call for PointFor and Recycle.
func (ps *pointState) reset(newCall bool) {
	if newCall {
		ps.faults.Store(0)
		ps.wallEWMA.Store(0)
		ps.disabled.Store(false)
		return
	}
	ps.refusedNoPay.Store(0)
	ps.probes.Store(0)
	ps.refusedNoProc.Store(0)
	ps.coldJoins.Store(0)
	ps.commits.Store(0)
	ps.rollbacks.Store(0)
	ps.commitLatency.Store(0)
	ps.rollbackLatency.Store(0)
}

// point returns fork/join point p's state, or nil when p is no point id.
func (rt *Runtime) point(p int) *pointState {
	if p < 0 || p >= len(rt.points) {
		return nil
	}
	return &rt.points[p]
}

// PointFor returns the fork/join point of the driver body whose code pointer
// is key: every call of one body forks, is profiled and is judged on one id.
// Ids are dense in first-use order, so a deterministic program numbers its
// bodies alike on every run whatever their addresses. A call clears the
// verdict on the call before it (see pointState) and leaves the counts and
// the pay-off estimate alone. The 65th distinct body takes over an earlier
// one's record, round-robin and counted in Summary.PointsExhausted: the
// record starts again from nothing — a worse profile, never a wrong result.
func (rt *Runtime) PointFor(key uintptr) int {
	rt.pointMu.Lock()
	p := 0
	for p < rt.bodies && rt.points[p].key != key {
		p++
	}
	if p == rt.bodies {
		if p < NumPoints {
			rt.bodies++
		} else {
			p = rt.evictNext
			rt.evictNext = (p + 1) % NumPoints
			rt.pointsExhausted.Add(1)
			rt.points[p].reset(false)
			rt.points[p].evicted.Store(true)
		}
		rt.points[p].key = key
		rt.points[p].guarded.Store(rt.opts.Timing == vclock.Real)
	}
	rt.pointMu.Unlock()
	rt.points[p].reset(true)
	return p
}

// estimate returns the pay-off estimate of the body interned at the point,
// nil when none is kept. Only the non-speculative thread, the estimate's one
// writer, may ask: an eviction made on any other thread takes effect here.
func (ps *pointState) estimate() *payoff {
	if !ps.guarded.Load() {
		return nil
	}
	if ps.evicted.Load() && ps.evicted.Swap(false) {
		ps.pay.reset()
	}
	return &ps.pay
}

// PointProfile reports a fork point's commits and rollbacks so far and
// whether the point is disabled by repeated faults. Unlike Stats, it is safe
// and meaningful to call from the non-speculative thread in the middle of a
// run; the counts accumulate until ResetStats.
func (rt *Runtime) PointProfile(p int) (commits, rollbacks int64, disabled bool) {
	ps := rt.point(p)
	if ps == nil {
		return 0, 0, false
	}
	return ps.commits.Load(), ps.rollbacks.Load(), ps.disabled.Load()
}
