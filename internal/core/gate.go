package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// The hand-off rule. The paper's join (§IV-E) is a flag-based barrier:
// both sides stay on their CPUs and watch sync_status / valid_status. A
// goroutine that parks instead pays a futex sleep, a halted core to wake
// and a scheduler round trip, and on a fine-grained loop it costs the pair
// of threads more than its own resume: the next fork's wake makes the
// parked worker runnable on the forking thread's P, the forker's next
// yield hands that P over, and the two then take turns on one P while the
// other idles until its thread wakes. So a waitGate spins for a fixed
// spinBudget before it parks — long enough to cover the gaps between the
// forks of a fine-grained loop, short enough that a wait nobody will end
// soon costs one spin and then nothing.
//
// Spinning is only free while nobody else wants the core, so a spin phase
// is entered (and continued) only while the process has a spare proc —
// see Runtime.spareProc.
//
// A round trip crosses three gates: the worker's mailbox, its wait for SYNC
// and the joiner's wait for valid_status. Each watched flag has a line only
// its writer stores to and a spin's first burst writes nothing, so a
// hand-off between running threads costs the flag's store and one miss.

const (
	// spinBurst is the number of predicate probes between two clock reads
	// of a spin phase, and between two yields past its first spinYield.
	spinBurst = 128
	// spinYield is how long a spin phase runs before it yields after every
	// burst, so it does not hold a P against a goroutine the accounting
	// does not see (an HTTP handler, the GC) or the thread it waits for; a
	// hand-off between running threads ends inside the window, unyielded.
	spinYield = 4 * time.Microsecond
	// spinBudget is the length of a spin phase. On loop-memory (2 vCPUs,
	// go1.24), against a spin of twice the measured resume latency (held
	// at a 10 µs floor there), it cut the tokens whose worker ran on the P
	// its parent joined from 14-16 % to 3-4 %, and a run's parks from a
	// median of 45 to 1.
	spinBudget = 100 * time.Microsecond
)

// procBusy counts, process-wide, the runtime threads that hold a CPU right
// now: non-speculative threads inside RunCtx and workers, minus the ones
// parked on a gate. A spinning waiter stays counted — it is on a CPU. The
// count is only written where a goroutine parks, resumes, or a run or
// worker starts and ends, so reading it in the spin loop is a shared-line
// load.
var procBusy atomic.Int32

// BusyThreads reports the process-wide number of runtime threads executing
// or spinning (not parked) — 0 when every runtime in the process is idle.
func BusyThreads() int { return int(procBusy.Load()) }

// procWorking counts, process-wide, the runtime threads that have work to
// run right now: non-speculative threads inside RunCtx plus claimed virtual
// CPUs (counted where claimIdleCPU succeeds and releaseCPU gives the CPU
// back, not in the worker: a worker is still folding its last execution
// when the fork after the join arrives), minus the ones parked on a gate.
// It differs from procBusy by the workers waiting on an empty mailbox,
// which hold a CPU only while nobody needs it. Fork reads it under real
// timing: a child that has no proc to run on buys nothing (see hostFull).
//
// The count is written on every fork and join, by the forking thread;
// procBusy is read by every spinner. The padding keeps the two on different
// cache lines, or each of those writes would first take the line back from
// the spinning worker's core.
var procWorking struct {
	_ [64]byte
	atomic.Int32
	_ [60]byte
}

// gateEpoch anchors the gates' monotonic clock.
var gateEpoch = time.Now()

func gateNow() int64 { return int64(time.Since(gateEpoch)) }

// waitGate blocks a goroutine until a predicate over published atomics
// holds: a time-bounded spin, then a park on the condition variable. The
// zero value is not ready; call init before use (NewRuntime does). A gate
// has one waiter, whose line its counters are; parked, which wakers read,
// is on a line no spin writes.
type waitGate struct {
	// parked counts waiters that are inside the lock, registered before
	// their final predicate check. wake skips lock+broadcast when it reads
	// zero: registration and the waker's publish are both sequentially
	// consistent atomics, so either the waker sees the registration or the
	// waiter's check sees the publish.
	parked atomic.Int32
	mu     sync.Mutex
	cond   sync.Cond
	_      [64]byte

	// Hand-off counters, always on: waits whose spin outlasted its first
	// burst, such spins that ran out of budget (the rest are spin hits),
	// and waits that slept. A spin that ends on the predicate writes none.
	spins   atomic.Int64
	spunOut atomic.Int64
	parks   atomic.Int64
	_       [64]byte
}

func (g *waitGate) init() { g.cond.L = &g.mu }

// spinHits reports the counted spins the predicate ended. spunOut is read
// first: a spin is counted in spins before it can run out.
func (g *waitGate) spinHits() int64 { out := g.spunOut.Load(); return g.spins.Load() - out }

// wait returns once pred() holds. pred must read only atomics: it is
// called both outside and inside the gate lock. maySpin says whether the
// caller may spin for spinBudget before parking; it is asked again at
// every yield, so a spinner gives up as soon as the answer changes. The
// caller must be counted in procBusy, and working says whether it is counted
// in procWorking as well (every waiter but a worker at its mailbox).
func (g *waitGate) wait(pred func() bool, maySpin func() bool, working bool) {
	if pred() {
		return
	}
	if maySpin() {
		for i := 0; i < spinBurst; i++ {
			if pred() {
				return
			}
		}
		g.spins.Add(1)
		now := gateNow()
		deadline, yieldAt := now+int64(spinBudget), now+int64(spinYield)
		for {
			for i := 0; i < spinBurst; i++ {
				if pred() {
					return
				}
			}
			if now = gateNow(); now > deadline {
				break
			}
			if now >= yieldAt {
				runtime.Gosched()
				if !maySpin() {
					break
				}
			}
		}
		g.spunOut.Add(1)
	}
	procBusy.Add(-1)
	if working {
		procWorking.Add(-1)
	}
	g.mu.Lock()
	g.parked.Add(1)
	slept := false
	for !pred() {
		g.cond.Wait()
		slept = true
	}
	g.parked.Add(-1)
	g.mu.Unlock()
	procBusy.Add(1)
	if working {
		procWorking.Add(1)
	}
	if slept {
		g.parks.Add(1)
	}
}

// wake unparks all waiters. The caller must publish the state the
// waiters' predicates read (an atomic store) BEFORE calling wake: a waiter
// registers in parked under the gate lock before its final check, so it
// has either observed the new state, or is registered and receives the
// broadcast — the store-check-park gap of a bare signal cannot lose the
// wakeup. With no registered waiter the call is one atomic load. It reports
// whether it found one.
func (g *waitGate) wake() bool {
	if g.parked.Load() == 0 {
		return false
	}
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
	return true
}

// spareProc reports whether a waiting thread of this runtime may spin:
// the threads on a CPU (the caller among them) must not outnumber the
// procs, and there must be a second proc for the awaited thread to run on.
func (rt *Runtime) spareProc() bool {
	return rt.procs > 1 && int(procBusy.Load()) <= rt.procs
}

// hostFull is the host-aware half of fork admission: under real timing a
// virtual CPU is a goroutine, and it is idle in the paper's sense only while
// a proc is — with every proc already running a thread that has work (of
// this runtime or of any other in the process) a child would take turns
// with them instead of running beside them. One shared-line load. Off under
// virtual timing, whose job is to model more CPUs than the host has, and on
// one proc (the condition spareProc uses), where a run would never fork.
func (rt *Runtime) hostFull() bool {
	return rt.opts.Timing == vclock.Real && rt.procs > 1 && int(procWorking.Load()) >= rt.procs
}

// idleSpin is the worker mailbox's spin rule: a worker that has just
// finished a speculation waits for the next fork on its CPU only while a
// run is in flight — a drained runtime and an idle pool never spin.
func (rt *Runtime) idleSpin() bool {
	return rt.running.Load() && rt.spareProc()
}
