package core

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// childrenRef returns the thread's children stack: speculative threads keep
// it in their ThreadData (so the parent can adopt it after a stop), the
// non-speculative thread keeps it locally.
func (t *Thread) childrenRef() *[]childRef {
	if t.speculative {
		return &t.cpu.td.children
	}
	return &t.children
}

// ForkHandle is the window between MUTLS_get_CPU and MUTLS_speculate: the
// parent stores the child's live-ins through it (the generated proxy
// function) and then starts the speculation. The handle lives in the
// forking Thread and is reused by that thread's next Fork, so it must not
// be kept past Start. It records the epoch it claimed the CPU under: every
// use after Start, or after the claim was abandoned and the CPU released,
// panics instead of touching a CPU that may be someone else's by then.
type ForkHandle struct {
	t       *Thread
	child   *cpu
	epoch   uint64
	started bool
	// pay and payStart time the fork for the body's pay-off estimate; nil
	// unless the non-speculative thread forks for a driver (ForkBody).
	pay      *payoff
	payStart vclock.Cost
}

// check panics when the fork window is closed: Start already ran, or the
// CPU has been released since the claim.
func (h *ForkHandle) check(op string) {
	if h.started || h.child.td.epoch() != h.epoch {
		panic("core: " + op + " on a fork handle whose window has closed")
	}
}

// Fork is __builtin_MUTLS_fork(p, model): it claims an IDLE virtual CPU for
// a speculative thread at fork/join point p under the given forking model.
// It returns nil — and the program simply continues non-speculatively — when
// the point already has a thread (ranks[p] != 0), the point is disabled by
// repeated faults, the run is cancelled, the model forbids this thread from
// forking, or no CPU is IDLE.
// Under real timing on more than one proc an IDLE virtual CPU must also have
// a proc to run on: the fork is refused while every proc of the host already
// runs a thread with work — this run's, or another runtime's in the process
// (gate.go, hostFull; counted in RefusedNoProc). On success ranks[p] holds
// the child's rank and the child is pushed on this thread's children stack.
func (t *Thread) Fork(ranks []Rank, p int, model Model) *ForkHandle {
	return t.forkAt(ranks, p, model, false)
}

// ForkBody is Fork for the driver whose body PointFor interned as p. It
// also returns nil while the body's region has not been paying for its
// fork/join (payoff.go; after 32, 64, … 1 024 refusals a probe — up to 32
// forks in a row — still goes through) or is due an inline run to be timed
// again (one fork after 64 joins of a driver that never runs it inline).
func (t *Thread) ForkBody(ranks []Rank, p int, model Model) *ForkHandle {
	return t.forkAt(ranks, p, model, true)
}

// forkAt is Fork; guarded says the body's pay-off estimate has a say.
func (t *Thread) forkAt(ranks []Rank, p int, model Model, guarded bool) *ForkHandle {
	if p < 0 || p >= len(ranks) || p >= NumPoints {
		panic(fmt.Sprintf("core: fork point %d out of range", p))
	}
	if ranks[p] != 0 {
		return nil
	}
	t.injectAt(faultinject.SiteFork)
	ps := &t.rt.points[p]
	if ps.disabled.Load() {
		return nil
	}
	// Host-aware admission comes before the pay-off guard: a fork refused
	// for want of a proc is neither one of the guard's probes nor a sample
	// of what forking here costs.
	if t.rt.hostFull() {
		ps.refusedNoProc.Add(1)
		return nil
	}
	// The do-no-harm guard. The non-speculative thread owns the estimate
	// and makes the probes; speculative threads (the links of an in-order
	// chain) follow its verdict.
	guarded = guarded && ps.guarded.Load()
	var pe *payoff
	if guarded {
		if !t.speculative {
			pe = ps.estimate()
		}
		noPay := ps.pay.noPay.Load()
		if t.speculative && noPay || pe != nil && !pe.admit() {
			if noPay {
				ps.refusedNoPay.Add(1)
			}
			return nil
		}
	}
	if t.rt.stopped() {
		// A cancelled run stops growing its speculative frontier: the
		// remaining work runs sequentially until a CancelPoint unwinds it.
		return nil
	}
	// Forking-model policy (§II, §IV-F).
	switch model {
	case InOrder:
		if t.rt.inOrderTail.Load() != t.tailWord() {
			return nil
		}
	case OutOfOrder:
		if t.speculative {
			return nil
		}
	case Mixed, MixedLinear:
		// Every thread may speculate.
	default:
		panic(fmt.Sprintf("core: unknown forking model %v", model))
	}

	cost := t.clock.Model
	t.clock.Charge(vclock.FindCPU, cost.FindCPUCost)
	sw := t.clock.Start(vclock.FindCPU)
	child := t.rt.claimIdleCPU(sw.Started())
	sw.Stop()
	if child == nil {
		return nil
	}

	td := &child.td
	td.point = p
	td.guarded = guarded
	td.model = model
	td.validStatus.Store(validNull)
	td.forceInvalid.Store(false)
	td.syncTime.Store(0)
	td.stopCounter = 0
	td.finalTime = 0
	td.reason = RollbackNone
	td.children = td.children[:0]
	for i := range td.forkLive {
		td.forkLive[i] = false
	}
	child.lb.Reset()

	ranks[p] = td.rank
	ref := childRef{rank: td.rank, epoch: td.epoch()}
	cs := t.childrenRef()
	*cs = append(*cs, ref)

	switch model {
	case InOrder:
		t.rt.inOrderTail.Store(tailWord(td.rank, ref.epoch))
	case MixedLinear:
		t.rt.linearInsert(t.rank, ref)
	}
	h := &t.fork
	*h = ForkHandle{t: t, child: child, epoch: ref.epoch}
	if pe != nil {
		if pe.forked() {
			ps.probes.Add(1)
		}
		h.pay, h.payStart = pe, sw.Started()
	}
	t.openFork = h
	return h
}

// abandonOpenFork undoes a Fork whose Start never happened because a panic
// unwound the window in between: the childRef is popped, the model
// bookkeeping reverted and the claimed CPU released. The fork point's
// ranks[] entry may keep the abandoned rank — its Join signals under the
// pre-release epoch, which the epoch-checked CAS rejects, and the join
// takes the rolled-back path. Safe to call any time: it is a no-op unless
// an un-started fork is open.
func (t *Thread) abandonOpenFork() {
	h := t.openFork
	if h == nil || h.started {
		return
	}
	t.openFork = nil
	child := h.child
	td := &child.td
	cs := t.childrenRef()
	if n := len(*cs); n > 0 && (*cs)[n-1].rank == td.rank {
		*cs = (*cs)[:n-1]
	}
	switch td.model {
	case InOrder:
		t.rt.inOrderTail.Store(t.tailWord())
	case MixedLinear:
		t.rt.linearRemove(td.rank)
	}
	t.rt.releaseCPU(child, t.clock.Now())
}

// tailWord returns this thread's in-order tail identity.
func (t *Thread) tailWord() uint64 {
	if !t.speculative {
		return 0
	}
	return tailWord(t.rank, t.cpu.td.epoch())
}

// claimIdleCPU scans for an IDLE CPU and claims it (MUTLS_get_CPU). A CPU
// qualifies only when it is also *virtually* idle — its freeAt does not
// exceed the forker's clock. On the modelled machine a CPU whose last
// execution ends at a later virtual time would still be busy now; claiming
// it (just because the 2-core host finished the goroutine early in real
// time) would serialize the new speculation behind it and destroy the
// schedule's fidelity.
func (rt *Runtime) claimIdleCPU(now vclock.Cost) *cpu {
	limit := int(rt.cpuLimit.Load())
	for r := 1; r <= limit; r++ {
		c := rt.cpus[r]
		if c.td.state.Load() != cpuIdle || c.freeAt.Load() > now {
			continue
		}
		if c.td.state.CompareAndSwap(cpuIdle, cpuClaimed) {
			// Re-check under the claim: the pre-scan freeAt read may have
			// been stale against a release that happened in between.
			if c.freeAt.Load() > now {
				c.td.state.Store(cpuIdle)
				continue
			}
			rt.active.Add(1)
			procWorking.Add(1)
			return c
		}
	}
	return nil
}

// Rank returns the claimed child's rank.
func (h *ForkHandle) Rank() Rank { return h.child.td.rank }

// setRegvar is MUTLS_set_regvar_*: the proxy function saving one live-in.
func (h *ForkHandle) setRegvar(slot int, v uint64) {
	h.check("SetRegvar")
	if err := h.child.lb.SetRegvar(slot, v); err != nil {
		// Too many live variables: the paper's speculator pass reports an
		// error and speculation fails; surface it as a panic since it is a
		// static protocol violation, not a dynamic conflict.
		panic(err)
	}
	h.child.td.forkRegs[slot] = v
	h.child.td.forkLive[slot] = true
	cost := h.t.clock.Model
	h.t.clock.Charge(vclock.Fork, cost.SaveLocal)
}

// SetRegvarInt64 saves an int64 live-in for the child.
func (h *ForkHandle) SetRegvarInt64(slot int, v int64) { h.setRegvar(slot, uint64(v)) }

// SetRegvarAddr saves a pointer live-in for the child.
func (h *ForkHandle) SetRegvarAddr(slot int, v mem.Addr) { h.setRegvar(slot, uint64(v)) }

// SetStackvar is MUTLS_set_stackvar_*: it copies the stack variable at
// homeAddr into the child's LocalBuffer.
func (h *ForkHandle) SetStackvar(slot int, homeAddr mem.Addr, size int) {
	h.check("SetStackvar")
	data := make([]byte, size)
	h.t.LoadBytes(homeAddr, data)
	if err := h.child.lb.SetStackvar(slot, homeAddr, data); err != nil {
		panic(err)
	}
	cost := h.t.clock.Model
	h.t.clock.Charge(vclock.Fork, cost.SaveLocal*vclock.Cost(1+size/mem.Word))
}

// Start is MUTLS_speculate: it hands the region to the claimed CPU's worker
// and sets the CPU RUNNING. The child enters through the stub, fetching its
// live-ins with Thread.GetRegvar*.
func (h *ForkHandle) Start(region RegionFunc) {
	h.check("Start")
	h.started = true
	if h.t.openFork == h {
		h.t.openFork = nil
	}
	cost := h.t.clock.Model
	h.t.clock.Charge(vclock.Fork, cost.ForkCost)
	startAt := h.t.clock.Now()
	if fa := h.child.freeAt.Load(); fa > startAt {
		startAt = fa
	}
	c := h.child
	c.td.state.Store(cpuRunning)
	// The worker's share of the active count, taken on its behalf before it
	// can possibly finish.
	h.t.rt.active.Add(1)
	c.task = specTask{region: region, startAt: startAt}
	c.taskReady.Store(true)
	cold := c.td.gate.wake()
	if h.pay != nil {
		h.pay.observeFork(h.t.clock.Now()-h.payStart, cold)
	}
}

// getRegvar is MUTLS_get_regvar_* on the child side (the stub), or the
// parent restoring saved locals is handled by JoinResult instead.
func (t *Thread) getRegvar(slot int) uint64 {
	if !t.speculative {
		panic("core: GetRegvar on the non-speculative thread")
	}
	v, err := t.cpu.lb.GetRegvar(slot)
	if err != nil {
		t.rollbackNow(RollbackUnsafeOp)
	}
	cost := t.clock.Model
	t.clock.Charge(vclock.Fork, cost.RestoreLocal)
	return v
}

// GetRegvarInt64 fetches an int64 live-in inside a region.
func (t *Thread) GetRegvarInt64(slot int) int64 { return int64(t.getRegvar(slot)) }

// GetRegvarAddr fetches a pointer live-in inside a region.
func (t *Thread) GetRegvarAddr(slot int) mem.Addr { return mem.Addr(t.getRegvar(slot)) }

// saveRegvar is MUTLS_set_regvar_* on the child side: saving live locals
// before stopping at a check, barrier or terminate point so the parent can
// restore them from the synchronization table.
func (t *Thread) saveRegvar(slot int, v uint64) {
	if !t.speculative {
		panic("core: SaveRegvar on the non-speculative thread")
	}
	if err := t.cpu.lb.SetRegvar(slot, v); err != nil {
		panic(err)
	}
	cost := t.clock.Model
	t.clock.Charge(vclock.Work, cost.SaveLocal)
}

// SaveRegvarInt64 saves an int64 live-out before a stop point.
func (t *Thread) SaveRegvarInt64(slot int, v int64) { t.saveRegvar(slot, uint64(v)) }

// SaveRegvarAddr saves a pointer live-out before a stop point.
func (t *Thread) SaveRegvarAddr(slot int, v mem.Addr) { t.saveRegvar(slot, uint64(v)) }

// GetStackvar materializes a buffered stack variable on the speculative
// thread's own stack (the stub side of MUTLS_get_stackvar_*): it allocates
// the child copy, fills it, binds the address for pointer mapping and
// returns it.
func (t *Thread) GetStackvar(slot int) mem.Addr {
	if !t.speculative {
		panic("core: GetStackvar on the non-speculative thread")
	}
	data, err := t.cpu.lb.GetStackvar(slot, mem.NilAddr)
	if err != nil {
		t.rollbackNow(RollbackUnsafeOp)
	}
	p := t.StackAlloc(len(data))
	t.StoreBytes(p, data)
	if _, err := t.cpu.lb.GetStackvar(slot, p); err != nil {
		t.rollbackNow(RollbackUnsafeOp)
	}
	cost := t.clock.Model
	t.clock.Charge(vclock.Fork, cost.RestoreLocal*vclock.Cost(1+len(data)/mem.Word))
	return p
}

// SaveStackvar copies the speculative copy of a stack variable back into
// the LocalBuffer before a stop point, so a committing join writes the
// final bytes to the non-speculative home.
func (t *Thread) SaveStackvar(slot int, specAddr mem.Addr, size int) {
	if !t.speculative {
		panic("core: SaveStackvar on the non-speculative thread")
	}
	data := make([]byte, size)
	t.LoadBytes(specAddr, data)
	if err := t.cpu.lb.UpdateStackvar(slot, data); err != nil {
		t.rollbackNow(RollbackUnsafeOp)
	}
	cost := t.clock.Model
	t.clock.Charge(vclock.Work, cost.SaveLocal*vclock.Cost(1+size/mem.Word))
}
