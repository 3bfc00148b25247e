package core

import (
	"sync/atomic"

	"repro/internal/vclock"
)

// This file surfaces per-point execution counters *mid-run*. The stats
// collector only aggregates execution records post-hoc (stats.Summarize);
// feedback-driven policies — adaptive chunk sizing in particular — need the
// commit/rollback/latency profile of a fork point while the loop that owns
// it is still running. Counters are updated by the worker goroutines with
// atomics, so the non-speculative thread may read them at any time; a read
// taken right after Join returns is guaranteed to include the joined
// execution (the worker folds it in before it publishes the verdict the
// join waits for).

// PointCounters is a snapshot of one fork/join point's live activity.
type PointCounters struct {
	// Commits and Rollbacks count finished speculative executions on the
	// point (squashed/NOSYNCed executions count as rollbacks).
	Commits   int64
	Rollbacks int64
	// CommitLatency and RollbackLatency sum the occupied CPU intervals
	// (virtual units or nanoseconds) of committed and rolled-back
	// executions respectively.
	CommitLatency   vclock.Cost
	RollbackLatency vclock.Cost
	// ReadSetPeak/WriteSetPeak are the largest per-execution GlobalBuffer
	// set sizes (words) observed on the point so far.
	ReadSetPeak  int
	WriteSetPeak int
}

// Executions is the total number of finished speculative executions.
func (p PointCounters) Executions() int64 { return p.Commits + p.Rollbacks }

// RollbackRate is rollbacks / executions, or 0 with no executions.
func (p PointCounters) RollbackRate() float64 {
	n := p.Executions()
	if n == 0 {
		return 0
	}
	return float64(p.Rollbacks) / float64(n)
}

// MeanCommitLatency is the average occupied interval of a committed
// execution, or 0 with no commits.
func (p PointCounters) MeanCommitLatency() vclock.Cost {
	if p.Commits == 0 {
		return 0
	}
	return p.CommitLatency / vclock.Cost(p.Commits)
}

// Sub returns the activity since an earlier snapshot of the same point:
// counts and latency sums are differenced, set peaks keep their absolute
// high-water marks (a maximum cannot be windowed).
func (p PointCounters) Sub(base PointCounters) PointCounters {
	return PointCounters{
		Commits:         p.Commits - base.Commits,
		Rollbacks:       p.Rollbacks - base.Rollbacks,
		CommitLatency:   p.CommitLatency - base.CommitLatency,
		RollbackLatency: p.RollbackLatency - base.RollbackLatency,
		ReadSetPeak:     p.ReadSetPeak,
		WriteSetPeak:    p.WriteSetPeak,
	}
}

// livePoint is the atomic backing store of one point's counters.
type livePoint struct {
	commits         atomic.Int64
	rollbacks       atomic.Int64
	commitLatency   atomic.Int64
	rollbackLatency atomic.Int64
	readPeak        atomic.Int64
	writePeak       atomic.Int64
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// observe folds one finished execution into the point's counters.
func (lp *livePoint) observe(committed bool, latency vclock.Cost, readPeak, writePeak int) {
	if committed {
		lp.commits.Add(1)
		lp.commitLatency.Add(int64(latency))
	} else {
		lp.rollbacks.Add(1)
		lp.rollbackLatency.Add(int64(latency))
	}
	atomicMax(&lp.readPeak, int64(readPeak))
	atomicMax(&lp.writePeak, int64(writePeak))
}

func (lp *livePoint) snapshot() PointCounters {
	return PointCounters{
		Commits:         lp.commits.Load(),
		Rollbacks:       lp.rollbacks.Load(),
		CommitLatency:   lp.commitLatency.Load(),
		RollbackLatency: lp.rollbackLatency.Load(),
		ReadSetPeak:     int(lp.readPeak.Load()),
		WriteSetPeak:    int(lp.writePeak.Load()),
	}
}

func (lp *livePoint) reset() {
	lp.commits.Store(0)
	lp.rollbacks.Store(0)
	lp.commitLatency.Store(0)
	lp.rollbackLatency.Store(0)
	lp.readPeak.Store(0)
	lp.writePeak.Store(0)
}

// PointCounters returns the live counters of fork/join point p. Unlike
// Stats, it is safe and meaningful to call from the non-speculative thread
// in the middle of a Run; counters accumulate until ResetStats.
func (rt *Runtime) PointCounters(p int) PointCounters {
	if p < 0 || p >= len(rt.live) {
		return PointCounters{}
	}
	return rt.live[p].snapshot()
}
