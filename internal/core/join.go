package core

import (
	"fmt"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/lbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// JoinStatus is the outcome of __builtin_MUTLS_join(p).
type JoinStatus uint8

const (
	// JoinNotForked: no thread was speculated on the point; the joining
	// thread simply executes the region itself.
	JoinNotForked JoinStatus = iota
	// JoinCommitted: the speculative thread validated and committed; the
	// joining thread restores its saved locals and resumes at the returned
	// synchronization counter.
	JoinCommitted
	// JoinRolledBack: the speculative execution was discarded; the joining
	// thread re-executes the region.
	JoinRolledBack
)

// String names the status.
func (s JoinStatus) String() string {
	switch s {
	case JoinNotForked:
		return "not-forked"
	case JoinCommitted:
		return "committed"
	case JoinRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("JoinStatus(%d)", uint8(s))
}

// JoinResult carries everything the synchronization table needs: the
// child's stop counter, its saved locals, nested frame records for stack
// reconstruction, and the pointer mappings for committed stack pointers.
type JoinResult struct {
	Status JoinStatus
	// Counter is the synchronization counter at which the child stopped:
	// 0 means it ran to the region's end (its barrier); non-zero values
	// index the resume blocks of the region.
	Counter uint32
	// Reason explains a rollback.
	Reason RollbackReason

	// regs are the child's saved entry-frame registers, live slots only.
	regs regList

	frames []lbuf.FrameRecord
	// ptrs are the child's stack-variable mappings, snapshotted so pointer
	// translation works after the CPU is reclaimed; nil without stackvars.
	ptrs []lbuf.PtrMapping
}

// regList is a list of registers as (slot, value) pairs: the first
// inlineRegs in place (every loop, reduction and pipeline driver saves
// fewer), the rest spilled. The inline part is an array, not a slice of it:
// a JoinResult is returned by value.
type regList struct {
	n      int
	inline [inlineRegs]regPair
	spill  []regPair
}

const inlineRegs = 8

// regPair is one saved register.
type regPair struct {
	slot int32
	val  uint64
}

func (l *regList) reset() { l.n, l.spill = 0, l.spill[:0] }

func (l *regList) add(r regPair) {
	if l.n < inlineRegs {
		l.inline[l.n] = r
	} else {
		l.spill = append(l.spill, r)
	}
	l.n++
}

func (l *regList) at(i int) regPair {
	if i < inlineRegs {
		return l.inline[i]
	}
	return l.spill[i-inlineRegs]
}

// lookup finds a register by slot.
func (l *regList) lookup(slot int) (uint64, bool) {
	for i := 0; i < l.n; i++ {
		if r := l.at(i); int(r.slot) == slot {
			return r.val, true
		}
	}
	return 0, false
}

// ValidateRegvarInt64 is MUTLS_validate_local_int64: the joining thread
// checks that the value it predicted for a live register at fork time
// matches the actual value now that it reached the join point. A mismatch
// forces the speculative thread to roll back.
func (t *Thread) ValidateRegvarInt64(ranks []Rank, p int, slot int, actual int64) {
	t.validateRegvar(ranks, p, slot, uint64(actual))
}

// The prediction and the forced invalidation are tagged with the child's
// fork-time epoch from this thread's children stack: a CPU that has moved
// on since is left alone.
func (t *Thread) validateRegvar(ranks []Rank, p int, slot int, actual uint64) {
	if p < 0 || p >= len(ranks) || ranks[p] == 0 {
		return
	}
	cs := *t.childrenRef()
	i := len(cs) - 1
	for i >= 0 && cs[i].rank != ranks[p] {
		i--
	}
	if i < 0 {
		return
	}
	td, tag := &t.rt.cpus[ranks[p]].td, cs[i].epoch+1
	if slot < 0 || slot >= len(td.forkRegs) || td.forkLive[slot] != tag || td.forkRegs[slot] != actual {
		td.forceInvalid.Store(tag)
	}
}

// Join is __builtin_MUTLS_join(p) / MUTLS_synchronize: it locates the
// speculative thread of point p in this thread's children stack following
// the mixed-model protocol of §IV-F — popping mismatched children (which
// get NOSYNC and squash their own subtrees), then synchronizing with the
// match, adopting its children whether it commits or rolls back, and
// reclaiming its CPU.
//
// Only the non-speculative thread synchronizes. A speculative thread that
// reaches a join point where it forked a child cannot commit that child to
// main memory (it may itself roll back); per Figure 2(d) it validates the
// child's predicted locals, saves its own live locals and stops with
// SyncParent — the non-speculative thread resumes at that counter and
// performs the join. Joins therefore happen in reverse in-order traversal
// of the thread tree, which is the sequential execution order, so every
// ancestor's writes are committed before a descendant validates against
// main memory.
func (t *Thread) Join(ranks []Rank, p int) JoinResult {
	if t.speculative {
		panic("core: Join on a speculative thread — use SyncParent at speculative join points (Fig. 2(d))")
	}
	if p < 0 || p >= len(ranks) {
		panic(fmt.Sprintf("core: join point %d out of range", p))
	}
	want := ranks[p]
	if want == 0 {
		return JoinResult{Status: JoinNotForked}
	}
	t.injectAt(faultinject.SiteJoin)
	ranks[p] = 0 // allow speculation on the point again, in either case

	cs := t.childrenRef()
	var ref childRef
	found := false
	for len(*cs) > 0 {
		c := (*cs)[len(*cs)-1]
		*cs = (*cs)[:len(*cs)-1]
		if c.rank == want {
			ref = c
			found = true
			break
		}
		// The program violated the mixed-model assumption: squash.
		t.rt.cpus[c.rank].td.signal(c.epoch, syncNoSync)
	}
	if !found {
		// The child was already squashed elsewhere; the paper returns
		// false and the joining thread re-executes.
		return JoinResult{Status: JoinRolledBack, Reason: RollbackNoSync}
	}

	child := t.rt.cpus[want]
	td := &child.td
	cost := t.clock.Model

	// Signal SYNC and wait for valid_status (the flag-based barrier: a
	// time-bounded spin on the child's gate, parked only past it).
	t.clock.Charge(vclock.Join, cost.SyncCost)
	waitStart := t.clock.Now()
	if t.clock.Mode == vclock.Virtual {
		td.syncTime.Store(waitStart)
	}
	if !td.signal(ref.epoch, syncSync) {
		// A third party squashed the child first (linear cascade), or the
		// epoch is stale because the squashed child already self-released:
		// the speculation is gone either way.
		return JoinResult{Status: JoinRolledBack, Reason: RollbackNoSync}
	}
	verdict := td.verdict(ref.epoch)
	if verdict == validNull {
		td.joinGate.wait(func() bool {
			verdict = td.verdict(ref.epoch)
			return verdict != validNull
		}, t.rt.spareProc, true)
	}
	if t.clock.Mode == vclock.Real {
		// The wait up to the child's valid_status stamp was for work still
		// running: idle. Past the stamp the verdict was out and this thread
		// was not yet running again — the hand-off's own latency: join.
		now := t.clock.Now()
		pub := min(max(td.finalTime, waitStart), now)
		t.clock.Book(vclock.Idle, pub-waitStart)
		t.clock.Book(vclock.Join, now-pub)
	}
	committed := verdict == validCommit

	// Adopt the child's children in both outcomes: local conflicts must not
	// discard the subtree's committed-future work (§IV-F).
	*cs = append(*cs, td.children...)

	// The joining thread idles until the child finishes validation and
	// commit; under virtual timing the gap is explicit.
	t.clock.AdvanceTo(td.finalTime, vclock.Idle)

	res := JoinResult{Reason: td.reason}
	if committed {
		res.Status = JoinCommitted
		res.Counter = td.stopCounter
		res.regs = td.out
		res.regs.spill = slices.Clone(res.regs.spill)
		res.frames, res.ptrs = td.frames, td.ptrs
		t.clock.Charge(vclock.Join, cost.RestoreLocal*vclock.Cost(res.regs.n))
		// Write the child's final stack-variable bytes back to their
		// non-speculative homes (the parent side of MUTLS_get_stackvar_*).
		for i, m := range res.ptrs {
			t.StoreBytes(m.Home, td.stackOut[i])
		}
	} else {
		res.Status = JoinRolledBack
		if td.model == MixedLinear {
			// The linear mixed baseline squashes every logically later
			// thread on a rollback — the cascade the tree model avoids.
			t.rt.linearSquash(want)
		}
	}
	if td.model == MixedLinear {
		t.rt.linearRemove(want)
	}
	guarded, wakeNS := td.guarded, td.wakeNS // the CPU is someone else's once released
	t.rt.releaseCPU(child, td.finalTime)
	if ps := &t.rt.points[p]; guarded && ps.estimate().observeJoin(t.clock.Now()-waitStart, wakeNS, committed) {
		ps.coldJoins.Add(1)
	}
	return res
}

// ChildMark returns the current depth of the thread's children stack, a
// cursor for SquashChildren.
func (t *Thread) ChildMark() int { return len(*t.childrenRef()) }

// SquashChildren signals NOSYNC to every child pushed above mark and pops
// them from the children stack. Loop drivers use it after a rolled-back
// join to discard the abandoned downstream speculation chain (adopted from
// the rolled-back thread) instead of leaving it stranded on its virtual
// CPUs until the end of the run; the squashed threads self-release their
// CPUs, which the re-forked chain can then reclaim.
//
// Squashing also hands the in-order fork mantle back to this thread:
// every in-order descendant is now dead, so waiting for the old tail
// thread to drain before re-forking (the mantle's normal release path)
// would only serialize the recovery. The handback races with a squashed
// descendant that is already inside an in-order Fork and has not yet
// noticed its NOSYNC: it may store its doomed child's word over the
// mantle, transiently refusing in-order forks again. The window is
// narrow and self-healing — the doomed child's release CASes the tail
// back to 0 — and the loop drivers degrade to inline execution (never
// incorrectness) while it lasts.
func (t *Thread) SquashChildren(mark int) {
	if mark < 0 {
		mark = 0
	}
	cs := t.childrenRef()
	if len(*cs) <= mark {
		return
	}
	for len(*cs) > mark {
		c := (*cs)[len(*cs)-1]
		*cs = (*cs)[:len(*cs)-1]
		t.rt.cpus[c.rank].td.signal(c.epoch, syncNoSync)
	}
	t.rt.inOrderTail.Store(t.tailWord())
}

// regvar fetches one restored local from the join result.
func (r *JoinResult) regvar(slot int) uint64 {
	if r.Status != JoinCommitted {
		panic("core: Regvar on a join that did not commit")
	}
	v, ok := r.regs.lookup(slot)
	if !ok {
		panic(fmt.Sprintf("core: regvar slot %d was not saved by the region", slot))
	}
	return v
}

// RegvarInt64 restores an int64 the region saved before stopping.
func (r *JoinResult) RegvarInt64(slot int) int64 { return int64(r.regvar(slot)) }

// RegvarAddr restores a pointer the region saved before stopping, applying
// the paper's pointer mapping mechanism: pointers into the speculative
// stack are translated to the corresponding non-speculative stack variable.
func (r *JoinResult) RegvarAddr(slot int) mem.Addr {
	p, _ := lbuf.MapPtr(r.ptrs, mem.Addr(r.regvar(slot)))
	return p
}

// RegvarLive reports whether the region saved the given slot.
func (r *JoinResult) RegvarLive(slot int) bool {
	_, ok := r.regs.lookup(slot)
	return ok
}

// Frames returns the child's nested frame records (outermost first) for
// stack frame reconstruction: the joining thread replays the recorded call
// chain, re-entering each function at its recorded call site
// (MUTLS_synchronize_entry).
func (r *JoinResult) Frames() []lbuf.FrameRecord { return r.frames }

// Committed is a convenience predicate.
func (r *JoinResult) Committed() bool { return r.Status == JoinCommitted }
