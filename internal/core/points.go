package core

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// CheckPoint is MUTLS_check_point: the polling call the speculator pass
// inserts inside loops and before function calls so the non-speculative
// thread never waits long. It returns true when the region must stop —
// either because the parent signalled a join (SYNC) or because an overflow
// entry obliges the thread to wait for its join. The region then saves its
// live locals with SaveRegvar*/SaveStackvar and returns its synchronization
// counter. A NOSYNC signal rolls the region back on the spot.
func (t *Thread) CheckPoint() bool {
	if !t.speculative {
		return false
	}
	t.injectAt(faultinject.SitePoll)
	cost := t.clock.Model
	t.clock.Charge(vclock.Work, cost.CheckPointCost)
	if d := t.cpu.deadline; d != 0 && time.Now().UnixNano() > d {
		// A runaway: roll back here, at the poll — the one place a squash
		// can interrupt a speculative thread without preemption.
		t.rt.collector.CountWatchdogKill()
		t.rollbackNow(RollbackDeadline)
	}
	switch t.cpu.td.syncStatus() {
	case syncSync:
		return true
	case syncNoSync:
		t.rollbackNow(RollbackNoSync)
	}
	return t.cpu.gb.MustStop()
}

// BarrierPoint is __builtin_MUTLS_barrier: an unconditional stop point. The
// thread stops here and waits to be joined; the joining thread resumes at
// the given synchronization counter. Live locals must be saved before the
// call. It does not return.
func (t *Thread) BarrierPoint(counter uint32) {
	if !t.speculative {
		return // barriers are no-ops on the non-speculative path
	}
	panic(stopSignal{counter: counter})
}

// TerminatePoint is MUTLS_terminate_point: inserted before instructions
// that are unsafe to execute speculatively (external calls, I/O,
// allocation). Mechanically identical to a barrier: the thread stops with
// the given counter and the joining thread re-executes the unsafe operation
// itself. It does not return on the speculative path.
func (t *Thread) TerminatePoint(counter uint32) {
	if !t.speculative {
		return
	}
	panic(stopSignal{counter: counter})
}

// SyncParent is MUTLS_sync_parent (Fig. 2(d)): a speculative thread that
// reaches a join point where it speculated a child hands its continuation
// to the parent chain — it stops with the join point's synchronization
// counter, and the non-speculative thread, after committing this thread,
// resumes there and performs the actual synchronization with the child
// (whose rank travels in the saved locals). It does not return on the
// speculative path.
func (t *Thread) SyncParent(counter uint32) {
	if !t.speculative {
		return
	}
	panic(stopSignal{counter: counter})
}

// EnterPoint is MUTLS_enter_point: it registers a new LocalBuffer stack
// frame as the speculative thread descends into a nested function call
// (§IV-H). funcID identifies the callee and callSite is the enter point's
// synchronization counter in the caller, which stack frame reconstruction
// replays.
func (t *Thread) EnterPoint(funcID, callSite uint32) {
	if !t.speculative {
		return
	}
	cost := t.clock.Model
	t.clock.Charge(vclock.Work, cost.CheckPointCost)
	t.cpu.lb.PushFrame(funcID, callSite)
}

// ReturnPoint is MUTLS_return_point: it pops the frame registered by the
// matching EnterPoint. Returning from the speculative entry function is
// restricted (§IV-H): the thread stops at the given counter instead.
func (t *Thread) ReturnPoint(counter uint32) {
	if !t.speculative {
		return
	}
	if err := t.cpu.lb.PopFrame(); err != nil {
		// Entry-frame return: treat as a stop point.
		panic(stopSignal{counter: counter})
	}
}

// FrameDepth returns the LocalBuffer frame depth (1 = entry frame).
func (t *Thread) FrameDepth() int {
	if !t.speculative {
		return 0
	}
	return t.cpu.lb.Depth()
}

// PtrIntCast guards type casts between pointers and integers (§IV-G3): the
// pointer mapping mechanism cannot fix integer copies of speculative stack
// pointers, so unless the value lies in the unmapped global address space
// the speculative thread stops at the given counter and the joining thread
// re-executes the cast.
func (t *Thread) PtrIntCast(v mem.Addr, counter uint32) {
	if !t.speculative {
		return
	}
	if t.rt.space.InGlobal(v, 1) {
		return
	}
	panic(stopSignal{counter: counter})
}

// Rollback forces the current region to roll back (exposed for failure
// injection in tests).
func (t *Thread) Rollback() {
	t.rollbackNow(RollbackUnsafeOp)
}

// CancelPoint is the cooperative cancellation poll of the driving,
// non-speculative thread — the service-mode analogue of CheckPoint. If
// the run has been cancelled (CancelRun, or the run's context is done) it
// unwinds the non-speculative thread back to RunCtx, which squashes
// outstanding speculation through the normal drain and reports the
// context's error. On a speculative thread it is a no-op: speculative work
// is reclaimed by the drain's NOSYNC cascade, not by unwinding.
func (t *Thread) CancelPoint() {
	if t.speculative {
		return
	}
	t.injectAt(faultinject.SitePoll)
	if t.rt.stopped() {
		panic(cancelSignal{})
	}
}
