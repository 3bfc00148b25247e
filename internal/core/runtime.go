package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gbuf"
	"repro/internal/lbuf"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// ErrClosed is returned by RunCtx on a runtime whose Close has completed
// (or started): the virtual-CPU workers are gone, so no run can execute.
var ErrClosed = errors.New("core: runtime is closed")

// ErrCancelled is returned by RunCtx when the run was unwound by a
// CancelPoint poll after CancelRun, and no context error is available to
// report instead (a context-driven cancellation returns ctx.Err()).
var ErrCancelled = errors.New("core: run cancelled")

// cancelSignal unwinds the non-speculative thread out of a cancelled run.
// It is raised only by Thread.CancelPoint on the non-speculative thread
// and recovered only by RunCtx, which then squashes outstanding
// speculation and reports the cancellation as an error.
type cancelSignal struct{}

// KernelPanic is the error RunCtx returns when the non-speculative thread
// panicked: the kernel itself faulted, so there is no correct sequential
// result to fall back to — but the run is unwound through the normal
// drain, outstanding speculation is squashed, and the runtime stays
// reusable (a pooled runtime recycles and serves its next tenant; the
// fault is counted in Summary.Faults). A *speculative* panic never
// surfaces here: it becomes a RollbackFault squash and the chunk re-
// executes non-speculatively.
type KernelPanic struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error renders the panic value.
func (e *KernelPanic) Error() string {
	return fmt.Sprintf("core: kernel panic: %v", e.Value)
}

// CPU states (paper §IV-D): every virtual CPU is RUNNING, IDLE or READY TO
// RECLAIM, initialized IDLE at program start. cpuClaimed is the transient
// state between MUTLS_get_CPU and MUTLS_speculate.
const (
	cpuIdle int32 = iota
	cpuClaimed
	cpuRunning
	cpuReady // READY TO RECLAIM: results published, waiting for the parent
)

// sync_status values of the flag-based barrier (§IV-E). They live in the
// low two bits of threadData.syncWord; the high bits hold the CPU's
// generation epoch, which makes every signal an epoch-checked CAS and rules
// out the ABA hazard of signalling a reclaimed CPU (a squashed thread
// self-releases its CPU, the rank gets re-forked, and a stale reference
// must not reach the new occupant).
const (
	syncNull uint64 = iota
	syncSync
	syncNoSync

	syncStatusBits = 2
	syncStatusMask = 1<<syncStatusBits - 1
)

// childRef is one entry of a thread's children stack: the child's rank plus
// the generation epoch under which it was forked.
type childRef struct {
	rank  Rank
	epoch uint64
}

// valid_status values.
const (
	validNull int32 = iota
	validCommit
	validRollback
)

// threadData is the paper's ThreadData module: the status of one
// speculative thread. Fields below the atomics are owned by the thread
// while it runs and read by the parent only after valid_status publishes
// (atomic release/acquire ordering).
type threadData struct {
	rank Rank

	state atomic.Int32
	// syncWord packs (epoch << 2) | sync_status. Signalling SYNC or NOSYNC
	// is a CAS against (epoch<<2)|NULL, so signals to stale epochs fail
	// harmlessly.
	syncWord    atomic.Uint64
	validStatus atomic.Int32
	// forceInvalid is set by the parent when MUTLS_validate_local detects a
	// live register misprediction; the child's validation then fails.
	forceInvalid atomic.Bool
	// syncTime is the parent's clock when it signals SYNC (virtual mode).
	syncTime atomic.Int64

	// gate blocks whoever waits on this CPU's published flags: the parent
	// waiting for validStatus, the worker waiting for sync_status or for
	// its next task. Wakers call gate.wake after every store those waits
	// observe (signal, validStatus, the task slot, Close).
	gate waitGate

	// Owned by the speculating (child) thread while RUNNING; read by the
	// parent after valid_status != NULL. Once valid_status is published the
	// parent may reclaim the CPU and fork on it again at any moment, so the
	// worker touches none of these fields past that store.
	point       int
	guarded     bool // forked by ForkBody under a kept estimate: Join folds its cost in
	model       Model
	children    []childRef
	stopCounter uint32
	finalTime   vclock.Cost
	// validStamp is the worker's clock at the valid_status store (real
	// mode): the joiner splits its wait there into idle (the child was
	// still working) and join (the verdict was out, the joiner not yet
	// running).
	validStamp vclock.Cost
	// wakeNS is the hand-off latency, Start stamp to region entry.
	wakeNS int64
	reason RollbackReason
	// readPeak/writePeak are the GlobalBuffer set sizes captured just
	// before finalization: the execution's buffer-pressure high-water
	// marks.
	readPeak  int
	writePeak int
	// forkRegs keeps the parent's fork-time register predictions for
	// MUTLS_validate_local (separate from the LocalBuffer, which the child
	// overwrites when saving its own locals at a stop point).
	forkRegs []uint64
	forkLive []bool
}

// epoch returns the CPU's current generation.
func (td *threadData) epoch() uint64 { return td.syncWord.Load() >> syncStatusBits }

// syncStatus returns the current sync_status bits.
func (td *threadData) syncStatus() uint64 { return td.syncWord.Load() & syncStatusMask }

// signal CASes sync_status from NULL to the given status under the given
// epoch. It fails — harmlessly — when the epoch is stale (the CPU was
// reclaimed) or a different signal won the race. A successful signal
// wakes the CPU's worker, which may be parked in waitSync.
func (td *threadData) signal(epoch, status uint64) bool {
	base := epoch << syncStatusBits
	if td.syncWord.CompareAndSwap(base|syncNull, base|status) {
		td.gate.wake()
		return true
	}
	return false
}

// bumpEpoch starts a new generation with sync_status NULL (done at release).
func (td *threadData) bumpEpoch() {
	td.syncWord.Store((td.epoch() + 1) << syncStatusBits)
}

// tailWord packs a speculative thread's identity for the in-order tail
// pointer; the non-speculative thread is 0.
func tailWord(rank Rank, epoch uint64) uint64 {
	return epoch<<8 | uint64(rank)
}

// cpu bundles one virtual CPU: its ThreadData, GlobalBuffer and LocalBuffer
// (the paper's ThreadManager maintains exactly this triple per CPU), plus
// the worker's task slot and the virtual time at which the CPU becomes free.
// The GlobalBuffer is held behind the gbuf.Backend interface, so the
// buffering organization is a per-runtime choice (Options.GBuf.Backend).
type cpu struct {
	td     threadData
	gb     gbuf.Backend
	lb     *lbuf.Buffer
	freeAt atomic.Int64 // virtual time when the CPU is next available

	// The worker's mailbox: ForkHandle.Start fills task, sets taskReady and
	// wakes td.gate; the worker clears taskReady when it takes the task. A
	// CPU is claimed by one forker at a time and only after its previous
	// task was taken, so the slot never holds two.
	task      specTask
	taskReady atomic.Bool

	// The speculative thread and its clock, re-initialized per speculation
	// instead of allocated.
	thread Thread
	clock  vclock.Clock

	rng   splitMix64
	stack mem.Range // this CPU's speculative stack region

	// snap is the stamp-table sequence the current execution read before
	// its first arena load: its join compares only the read-set words on
	// pages stamped after it.
	snap uint64

	// deadline is the wall-clock unixnano past which CheckPoint rolls the
	// current execution back (RollbackDeadline), set by runSpec at region
	// entry; 0 when SpecDeadline is off. Only the worker touches it.
	deadline int64
}

// specTask is one speculation handed to a worker.
type specTask struct {
	region RegionFunc
	// startAt is the child's clock at entry: the forker's clock at Start
	// (real mode: the stamp the child's wake-up latency is measured from),
	// or the CPU's later virtual free time.
	startAt vclock.Cost
}

// RegionFunc is the speculative continuation: the code from a join point to
// the matching barrier, in the transformed form of Figure 2(d). It fetches
// live-ins with Thread.GetRegvar*, polls Thread.CheckPoint inside loops, and
// returns a synchronization counter: 0 when it ran to the region's end, or
// the counter saved at an early stop so the joining thread can resume there.
type RegionFunc func(t *Thread) uint32

// Runtime is the ThreadManager: one ThreadData/GlobalBuffer/LocalBuffer per
// virtual CPU, the simulated address space, the statistics collector, and
// the global forking-model bookkeeping.
type Runtime struct {
	opts  Options
	space *mem.Space
	cpus  []*cpu // index 0 unused; ranks are 1-based
	epoch time.Time
	// procs is GOMAXPROCS at construction: the bound of the spin rule
	// (spareProc) and of fork admission (hostFull). Read once —
	// runtime.GOMAXPROCS takes the scheduler lock.
	procs int

	// inOrderTail identifies the most speculative thread — the only one the
	// in-order model allows to fork. It packs (epoch<<8 | rank); 0 means
	// the non-speculative thread. When the tail thread retires, every
	// earlier chain thread has already been joined (joins are sequential),
	// so the mantle reverts to the non-speculative thread.
	inOrderTail atomic.Uint64

	// linear keeps the logical order of MixedLinear threads for the
	// Mitosis/POSH-style squash baseline.
	linearMu sync.Mutex
	linear   []childRef

	points    []pointState // one record per fork/join point, see live.go
	collector *stats.Collector
	wg        sync.WaitGroup
	closed    atomic.Bool

	// active counts claimed virtual CPUs plus workers inside runSpec (a
	// started speculation holds two shares: the CPU's, dropped when it is
	// released, and the worker's, dropped when runSpec returns — the parent
	// may release the CPU while the worker still clears its buffers).
	// Draining waits for zero: a sequential all-IDLE scan is not enough,
	// because a not-yet-squashed thread can fork onto a CPU the scan
	// already passed.
	active atomic.Int64

	// running marks a run in flight (RunCtx entry to drained exit); idle
	// workers spin for their next task only while it is set.
	running atomic.Bool

	// cancelled marks the in-flight run as cancelled by CancelRun, and done
	// is the Done channel of the context RunCtx runs under (nil between
	// runs, and for a context that cannot be cancelled). Fork refuses and
	// CancelPoint unwinds once either says so (stopped). RunCtx clears both
	// at run exit.
	cancelled atomic.Bool
	done      <-chan struct{}

	// plan is the fault-injection plan the run's context carries (nil for
	// none), read by the seams (inject.go, validateAndCommit). RunCtx sets
	// it and clears it at run exit, like done.
	plan *faultinject.Plan

	// cpuLimit bounds the virtual CPUs claimIdleCPU may hand out (ranks
	// 1..cpuLimit). It defaults to NumCPUs; a runtime pool lowers it per
	// run so concurrent tenants share a host-CPU budget, down to 0 for
	// fully sequential (every fork refused) execution.
	cpuLimit atomic.Int32

	// PointFor's table: points[:bodies] stand for a driver body, evictNext is
	// the record the next body past NumPoints takes over.
	pointMu         sync.Mutex
	bodies          int
	evictNext       int
	pointsExhausted atomic.Int64

	// stamps is the page-granularity dirty table over the arena that keeps
	// read-set validation short: direct writers (non-speculative stores,
	// commits beside a live sibling — see commitStamps) mark the pages they
	// touch, a speculative execution snapshots the sequence before its first
	// load, and its serial section compares only the read-set runs on pages
	// stamped after that snapshot. nil when the runtime has no speculative
	// CPUs; markFn is stamps.Mark then, also nil.
	stamps *mem.WriteStamps
	markFn func(mem.Addr, int)

	// drainGate blocks the non-speculative thread in drain until active
	// reaches zero; every decrement wakes it.
	drainGate waitGate
}

// NewRuntime builds a runtime with NumCPUs speculative virtual CPUs.
func NewRuntime(opts Options) (*Runtime, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	space, err := mem.NewSpace(o.Space)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		opts:      o,
		space:     space,
		cpus:      make([]*cpu, o.NumCPUs+1),
		epoch:     time.Now(),
		procs:     runtime.GOMAXPROCS(0),
		points:    make([]pointState, NumPoints),
		collector: stats.NewCollector(o.NumCPUs),
	}
	rt.drainGate.init()
	rt.cpuLimit.Store(int32(o.NumCPUs))
	if o.NumCPUs > 0 {
		ws, err := mem.NewWriteStamps(space.Arena.Size(), 0)
		if err != nil {
			return nil, err
		}
		rt.stamps = ws
		rt.markFn = ws.Mark
	}
	for r := 1; r <= o.NumCPUs; r++ {
		gb, err := gbuf.NewBackend(space.Arena, o.GBuf)
		if err != nil {
			return nil, err
		}
		lb, err := lbuf.New(o.LBuf)
		if err != nil {
			return nil, err
		}
		stack, err := space.StackRegion(r)
		if err != nil {
			return nil, err
		}
		c := &cpu{
			gb:    gb,
			lb:    lb,
			rng:   newSplitMix64(o.Seed ^ (uint64(r) * 0x9E3779B97F4A7C15)),
			stack: stack,
		}
		c.td.rank = Rank(r)
		c.td.gate.init()
		c.td.forkRegs = make([]uint64, o.LBuf.RegSlots)
		c.td.forkLive = make([]bool, o.LBuf.RegSlots)
		rt.cpus[r] = c
		rt.wg.Add(1)
		go rt.worker(c)
	}
	return rt, nil
}

// Space exposes the simulated address space (for setup code and tests).
func (rt *Runtime) Space() *mem.Space { return rt.space }

// Options returns the effective (defaulted) options.
func (rt *Runtime) Options() Options { return rt.opts }

// NumCPUs returns the number of speculative virtual CPUs.
func (rt *Runtime) NumCPUs() int { return rt.opts.NumCPUs }

// SetCPULimit bounds the virtual CPUs available to subsequent forks to
// ranks 1..n (clamped to [0, NumCPUs]). A limit of 0 refuses every fork —
// the run executes sequentially. The limit is read at claim time, so it
// should be changed between runs: already-claimed CPUs above a lowered
// limit finish their speculation normally. A runtime pool uses this to
// split one host-CPU budget across concurrent tenants without rebuilding
// runtimes. The limit decides how wide a run may speculate at most; whether
// a CPU inside it is used is decided per fork, under real timing, by what
// the host's procs are doing at that moment (Fork, RefusedNoProc).
func (rt *Runtime) SetCPULimit(n int) {
	if n < 0 {
		n = 0
	}
	if n > rt.opts.NumCPUs {
		n = rt.opts.NumCPUs
	}
	rt.cpuLimit.Store(int32(n))
}

// CPULimit returns the current virtual-CPU claim bound.
func (rt *Runtime) CPULimit() int { return int(rt.cpuLimit.Load()) }

// RunCtx executes fn as the non-speculative thread under a context and
// returns the paper's TN: the critical-path runtime (virtual units or
// nanoseconds). Any speculative threads still outstanding when fn returns
// are squashed, as the paper's runtime does at program exit. It returns
// ErrClosed (without executing fn) on a closed runtime, ctx.Err() when the
// context expires before or during the run, ErrCancelled for a run
// CancelRun unwound, and a *KernelPanic when fn panicked. Cancellation is
// cooperative and read where it acts: once the context is done, every
// later Fork refuses and the next Thread.CancelPoint poll on the
// non-speculative thread unwinds the run. Whatever the error, the runtime
// drains — outstanding speculation is squashed through the join-protocol
// gates exactly as at a normal run end — so it is reusable afterwards. A
// cancelled run's partial effects on the simulated address space are
// unspecified; a pooled runtime recycles (Recycle) before its next tenant.
// A fault-injection plan the context carries (faultinject.NewContext)
// decides at the run's seams; it does not outlive the run.
func (rt *Runtime) RunCtx(ctx context.Context, fn func(t *Thread)) (vclock.Cost, error) {
	if rt.closed.Load() {
		return 0, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if rt.opts.Timing == vclock.Real {
		// Re-stamp the shared epoch so the measured span starts at the
		// run, not at runtime construction (buffer allocation would
		// otherwise pollute wall-clock results). The runtime is quiescent
		// here — workers only read the epoch after a fork hands them a
		// task, which happens after this write.
		rt.epoch = time.Now()
	}
	t := &Thread{
		rt:    rt,
		rank:  0,
		clock: vclock.NewClock(rt.opts.Timing, &rt.opts.Cost, rt.epoch),
		stack: mustStackRegion(rt.space, 0),
	}
	t.stackTop = t.stack.Start
	rt.inOrderTail.Store(0)
	rt.cancelled.Store(false)
	rt.done = ctx.Done()
	rt.plan = faultinject.From(ctx)
	// Each run's clock restarts at zero, so the previous run's freeAt
	// stamps would make every CPU look virtually busy until the new clock
	// catches up — refusing all early forks on a reused (pooled) runtime.
	// The runtime is quiescent here: the previous drain waited for every
	// worker, and workers only read freeAt after a fork hands them a task.
	for r := Rank(1); int(r) <= rt.opts.NumCPUs; r++ {
		rt.cpus[r].freeAt.Store(0)
	}
	err := rt.runCounted(t, fn)
	runtime := t.clock.Now()
	rt.collector.SetNonSpec(runtime, t.clock.Ledger())
	if err != nil {
		// A context-driven unwind reports the context's error; a kernel
		// panic is the more specific failure and wins even when the
		// context also expired.
		if errors.Is(err, ErrCancelled) {
			if cerr := ctx.Err(); cerr != nil {
				return runtime, cerr
			}
		}
		return runtime, err
	}
	return runtime, nil
}

// runCounted is the part of a run during which its non-speculative thread
// is counted busy: fn, then the drain. It translates a CancelPoint unwind
// into ErrCancelled and any other panic into a *KernelPanic error, and
// always proceeds to the drain, so the runtime stays reusable after a
// kernel panic — the containment contract the serving layer depends on.
// The exit half is deferred because a runtime.Goexit inside fn (a t.Fatal
// in a test's callback) skips whatever follows the call: a thread left
// counted would stop later waits from spinning and refuse every later fork
// in the process, and children left undrained would hang Close.
func (rt *Runtime) runCounted(t *Thread, fn func(t *Thread)) (err error) {
	procBusy.Add(1)
	procWorking.Add(1)
	rt.running.Store(true)
	defer func() {
		switch r := recover().(type) {
		case nil:
		case cancelSignal:
			err = ErrCancelled
		default:
			stack := debug.Stack()
			rt.collector.CountKernelPanic(stats.FaultRecord{
				Rank:  0,
				Point: -1,
				Value: fmt.Sprint(r),
				Stack: truncateStack(stack),
			})
			err = &KernelPanic{Value: r, Stack: stack}
		}
		// fn may have been left through an open fork window (between
		// MUTLS_get_CPU and MUTLS_speculate): release the claimed CPU or
		// the drain would wait forever for a task that never starts.
		t.abandonOpenFork()
		rt.drain(t)
		rt.running.Store(false)
		procWorking.Add(-1)
		procBusy.Add(-1)
		rt.cancelled.Store(false)
		rt.done = nil // a pooled runtime must not keep the request's context
		rt.plan = nil
	}()
	fn(t)
	return nil
}

// truncateStack bounds a captured stack for the fault record ring.
func truncateStack(s []byte) string {
	const max = 4096
	if len(s) > max {
		return string(s[:max]) + "…"
	}
	return string(s)
}

// CancelRun requests cooperative cancellation of the in-flight run: Fork
// refuses from now on (speculation degrades to sequential execution), and
// the non-speculative thread unwinds at its next CancelPoint poll. RunCtx
// clears the flag when the run ends.
func (rt *Runtime) CancelRun() { rt.cancelled.Store(true) }

// stopped reports whether the in-flight run was cancelled: by CancelRun, or
// by the end of the context it runs under. A receive from the nil channel
// of a context that cannot end falls straight to default.
func (rt *Runtime) stopped() bool {
	if rt.cancelled.Load() {
		return true
	}
	select {
	case <-rt.done:
		return true
	default:
		return false
	}
}

// Recycle prepares an idle runtime for its next logical tenant without
// rebuilding it: statistics and live counters reset, every fork point's
// verdict on its last driver call cleared (bodies keep their ids and pay-off
// estimates: the next tenant runs the same code), and the simulated heap
// released wholesale (arena and buffers are reused as-is). Addresses
// obtained from Alloc before Recycle are invalid afterwards. The runtime must be quiescent (no run in
// flight) — verified, because recycling under live speculation would hand
// the next tenant a corrupted heap.
func (rt *Runtime) Recycle() {
	if !rt.Quiescent() {
		panic("core: Recycle on a non-quiescent runtime")
	}
	rt.ResetStats()
	for p := range rt.points {
		rt.points[p].reset(true)
	}
	if err := rt.space.Heap.Reset(); err != nil {
		// Deregistering live allocations can only fail on registry
		// corruption, which no recycled tenant should inherit.
		panic(err)
	}
}

func mustStackRegion(s *mem.Space, rank int) mem.Range {
	r, err := s.StackRegion(rank)
	if err != nil {
		panic(err)
	}
	return r
}

// drain squashes every thread the non-speculative thread still owns and
// waits for all speculation to quiesce. NOSYNC propagates transitively:
// every outstanding thread is reachable from the non-speculative children
// stack through adoption, and squashed threads squash their own subtrees.
func (rt *Runtime) drain(t *Thread) {
	for _, c := range t.children {
		rt.cpus[c.rank].td.signal(c.epoch, syncNoSync)
	}
	t.children = t.children[:0]
	rt.drainGate.wait(rt.Quiescent, rt.spareProc, true)
}

// retire drops one share of the active count and wakes a draining thread.
func (rt *Runtime) retire() {
	rt.active.Add(-1)
	rt.drainGate.wake()
}

// Stats summarizes the executions since the last ResetStats, from the
// per-CPU accumulators and the per-point counters. The GlobalBuffer
// counters are aggregated over all virtual CPUs; the runtime must be
// quiescent (RunCtx drains before returning).
func (rt *Runtime) Stats() *stats.Summary {
	s := rt.collector.Summarize(rt.opts.NumCPUs)
	for p := range rt.points {
		ps := &rt.points[p]
		commits, rollbacks := ps.commits.Load(), ps.rollbacks.Load()
		noPay, noProc := ps.refusedNoPay.Load(), ps.refusedNoProc.Load()
		pe := ps.estimate()
		// A Pipeline stage fused into a group forks nowhere, but its inline
		// time is what cut the group.
		if commits+rollbacks+noPay+noProc > 0 || pe != nil && pe.inline.n > 0 {
			pt := stats.PointStats{
				Commits:       int(commits),
				Rollbacks:     int(rollbacks),
				Runtime:       ps.commitLatency.Load() + ps.rollbackLatency.Load(),
				RefusedNoPay:  int(noPay),
				Probes:        int(ps.probes.Load()),
				RefusedNoProc: int(noProc),
				ColdJoins:     int(ps.coldJoins.Load()),
			}
			if pe != nil {
				pt.InlineNS, pt.GainNS, pt.CostNS = pe.inline.mean(), pe.gain(), pe.cost.mean()
			}
			s.PerPoint[p] = pt
			s.RefusedNoProc += noProc
		}
	}
	for r := 1; r <= rt.opts.NumCPUs; r++ {
		s.GBuf.Add(rt.cpus[r].gb.Counters())
	}
	s.PointsExhausted = rt.pointsExhausted.Load()
	s.HandoffSpins, s.HandoffSpinHits, s.HandoffParks = rt.handoffCounts()
	return s
}

// handoffCounts sums the gates' always-on counters; safe mid-run.
func (rt *Runtime) handoffCounts() (spins, spinHits, parks int64) {
	rt.eachGate(func(g *waitGate) {
		spins += g.spins.Load()
		spinHits += g.spinHits.Load()
		parks += g.parks.Load()
	})
	return spins, spinHits, parks
}

// eachGate visits the drain gate and every virtual CPU's gate.
func (rt *Runtime) eachGate(fn func(g *waitGate)) {
	fn(&rt.drainGate)
	for r := 1; r <= rt.opts.NumCPUs; r++ {
		fn(&rt.cpus[r].td.gate)
	}
}

// ResetStats clears collected statistics (the per-CPU accumulators and
// GlobalBuffer counters, the per-point counts and peaks) between runs. A
// disabled fork point stays disabled: see pointState.
func (rt *Runtime) ResetStats() {
	rt.collector.Reset()
	for r := 1; r <= rt.opts.NumCPUs; r++ {
		*rt.cpus[r].gb.Counters() = gbuf.Counters{}
	}
	for p := range rt.points {
		rt.points[p].reset(false)
	}
	rt.pointsExhausted.Store(0)
	rt.eachGate(func(g *waitGate) {
		g.spins.Store(0)
		g.spinHits.Store(0)
		g.parks.Store(0)
	})
}

// Close shuts the workers down. The runtime must be idle (no outstanding
// speculation; RunCtx drains before returning).
func (rt *Runtime) Close() {
	if rt.closed.Swap(true) {
		return
	}
	// closed is what an idle worker's wait reads; it was published above.
	for r := 1; r <= rt.opts.NumCPUs; r++ {
		rt.cpus[r].td.gate.wake()
	}
	rt.wg.Wait()
}

// Quiescent reports whether no virtual CPU is claimed and no worker is
// inside a speculation — the precondition for Recycle and the pool's
// reuse-after-fault verification.
func (rt *Runtime) Quiescent() bool { return rt.active.Load() == 0 }

// worker is a virtual CPU's goroutine: it waits on the CPU's gate for a
// task in its slot and runs it through the stop/validate/commit protocol.
// Between two speculations of a run it spins for the next fork (idleSpin)
// before it parks, so a chain of forks on this CPU never pays a wake-up.
func (rt *Runtime) worker(c *cpu) {
	defer rt.wg.Done()
	procBusy.Add(1)
	defer procBusy.Add(-1)
	for {
		c.td.gate.wait(func() bool { return c.taskReady.Load() || rt.closed.Load() }, rt.idleSpin, false)
		if !c.taskReady.Load() {
			return // closed
		}
		task := c.task
		c.taskReady.Store(false)
		rt.runSpec(c, task)
		rt.retire()
	}
}

// regionOutcome describes how a region execution ended.
type regionOutcome struct {
	counter    uint32
	rolledBack bool
	reason     RollbackReason
	// panicVal/panicStack capture a contained fault (reason
	// RollbackFault): the unknown panic value and the stack at recovery.
	panicVal   any
	panicStack []byte
}

// runRegion executes the region, translating the internal stop/rollback
// panics into an outcome. An unknown panic is a speculative fault — the
// expected failure mode of a thread running on mispredicted live-ins
// (out-of-bounds indexing, division by zero, nil dereference) — and
// becomes a RollbackFault outcome instead of crashing the worker: the
// execution is squashed and the joining thread re-executes the chunk
// non-speculatively, which yields the correct sequential result.
func runRegion(t *Thread, region RegionFunc) (out regionOutcome) {
	defer func() {
		if r := recover(); r != nil {
			// Any unwind may have crossed an open fork window; release the
			// claimed CPU before publishing the outcome.
			t.abandonOpenFork()
			switch sig := r.(type) {
			case stopSignal:
				out = regionOutcome{counter: sig.counter}
			case rollbackSignal:
				out = regionOutcome{rolledBack: true, reason: sig.reason}
			default:
				out = regionOutcome{
					rolledBack: true,
					reason:     RollbackFault,
					panicVal:   r,
					panicStack: debug.Stack(),
				}
			}
		}
	}()
	counter := region(t)
	return regionOutcome{counter: counter}
}

// runSpec is the body of one speculative execution: stub entry, region,
// stop, synchronize, validate, commit/rollback — and then the fold, the one
// place a finished execution is accounted, whichever way it ended (commit,
// validated rollback, self-rollback, NOSYNC).
//
// The fold has two halves around the verdict, which is published as soon as
// it exists. Everything the joiner reads — final time (with the virtual
// finalize charge already booked), set peaks, the point's counters and
// whether the point may still fork — is written before the valid_status
// store; clearing the buffers and closing the execution into this CPU's
// accumulator come after it, on this worker's time, while the joiner is
// already running again. From that store on the parent may reclaim the CPU
// and fork on it, so the second half works from locals and from state only
// the worker owns (its GlobalBuffer, its clock, its accumulator).
func (rt *Runtime) runSpec(c *cpu, task specTask) {
	t := &c.thread
	c.clock.Init(rt.opts.Timing, &rt.opts.Cost, rt.epoch)
	*t = Thread{
		rt:          rt,
		rank:        c.td.rank,
		cpu:         c,
		clock:       &c.clock,
		stack:       c.stack,
		stackTop:    c.stack.Start,
		speculative: true,
	}
	t.clock.SetNow(task.startAt)
	// The execution occupies its CPU from the fork's Start stamp. Under
	// real timing the gap up to here is the hand-off latency — the worker
	// waking up or noticing the task — and is booked as fork time; under
	// virtual timing the clock was just set to startAt and there is no gap.
	execStart := task.startAt
	td := &c.td
	td.wakeNS = t.clock.Now() - execStart
	t.clock.Book(vclock.Fork, td.wakeNS)
	epoch := td.epoch()
	var wallStart int64
	if d := int64(rt.opts.SpecDeadline); d > 0 {
		// The runaway deadline, fixed at region entry and stretched for a
		// point whose regions are legitimately slow: CheckPoint rolls the
		// execution back at its first poll past it.
		wallStart = time.Now().UnixNano()
		c.deadline = wallStart + max(d, 8*rt.points[td.point].wallEWMA.Load())
	}

	// Before the region's first arena load: every write the region can have
	// missed either stamped its page after this or stored before it.
	c.snap = rt.stamps.Snapshot()
	out := runRegion(t, task.region)

	var wallNS int64
	if wallStart != 0 {
		wallNS = time.Now().UnixNano() - wallStart
	}

	// Reach a verdict, or learn that the parent wants none.
	verdict := validRollback
	awaitSync := false
	if out.rolledBack {
		if out.reason == RollbackFault {
			rt.collector.CountSpecPanic(stats.FaultRecord{
				Rank:  int(td.rank),
				Point: td.point,
				Value: fmt.Sprint(out.panicVal),
				Stack: truncateStack(out.panicStack),
			})
		}
		// Self-detected rollback (invalid address, overflow exhaustion,
		// unsafe op, fault): ROLLBACK is published at once, and the thread
		// then waits for the parent's signal so children are handed to
		// exactly one side. Whatever the signal, the execution counts as a
		// rollback.
		td.reason = out.reason
		td.stopCounter = 0
		td.state.Store(cpuReady)
		awaitSync = true
	} else {
		// Stopped at a check point, barrier point, terminate point or the
		// region's end. Publish the stop, then wait for the join signal. A
		// thread stopped by a hash-conflict overflow waits on overflow time.
		td.stopCounter = out.counter
		waitPhase := vclock.Idle
		if c.gb.MustStop() {
			waitPhase = vclock.Overflow
		}
		td.state.Store(cpuReady)
		if rt.waitSync(t, c, epoch, waitPhase) == syncNoSync {
			verdict = validNull
		} else {
			// Both threads have stopped: the speculative thread validates
			// and commits or rolls back (paper §IV-E).
			t.clock.AdvanceTo(td.syncTime.Load(), waitPhase)
			if rt.validateAndCommit(t, c) {
				td.reason = RollbackNone
				verdict = validCommit
			}
		}
	}

	// The fold, first half: the point's counters, before the verdict.
	rt.bookFinalize(t, c)
	now := t.clock.Now()
	td.finalTime = now
	rec := stats.ExecRecord{
		Rank:         int(td.rank),
		Start:        execStart,
		Committed:    verdict == validCommit,
		ReadSetPeak:  td.readPeak,
		WriteSetPeak: td.writePeak,
	}
	rt.points[td.point].observe(execOutcome{
		committed: rec.Committed,
		fault:     out.reason == RollbackFault,
		latency:   now - execStart,
		wallNS:    wallNS,
	})
	if verdict != validNull {
		// The parent adopts children, copies locals and reclaims the CPU
		// from here on; the rest is this worker's own housekeeping.
		publishVerdict(td, now, verdict)
	}
	rt.clearBuffers(t, c)
	if awaitSync && rt.waitSync(t, c, epoch, vclock.Idle) == syncNoSync {
		verdict = validNull
	}
	if verdict == validNull {
		rt.finishNoSync(c)
	}

	// Second half: the occupied interval and its ledger, closed only now so
	// that real-mode finalize time and the waits above are booked.
	rec.End = t.clock.Now()
	rec.Ledger = t.clock.Ledger()
	rt.collector.Add(rec)
}

// publishVerdict stores valid_status — the release point of everything the
// execution wrote to its ThreadData — stamped with the worker's clock, and
// wakes the joiner.
func publishVerdict(td *threadData, now vclock.Cost, status int32) {
	td.validStamp = now
	td.validStatus.Store(status)
	td.gate.wake()
}

// waitSync waits (time-bounded spin, then parked) until the parent signals
// SYNC or NOSYNC on the execution's epoch and returns the signal. In real
// mode the wait is booked to the given phase. The predicate keeps
// the one word it loaded: a self-rolled-back execution has published its
// verdict already, so after SYNC the parent may reclaim the CPU — bumping
// the epoch and clearing sync_status — before this thread looks again. An
// epoch that moved on therefore means SYNC: a NOSYNCed thread releases its
// CPU itself.
func (rt *Runtime) waitSync(t *Thread, c *cpu, epoch uint64, phase vclock.Phase) uint64 {
	sw := t.clock.Start(phase)
	null := epoch << syncStatusBits
	var w uint64
	c.td.gate.wait(func() bool {
		w = c.td.syncWord.Load()
		return w != null
	}, rt.spareProc, true)
	sw.Stop()
	if w>>syncStatusBits != epoch {
		return syncSync
	}
	return w & syncStatusMask
}

// finishNoSync is the self-cleanup of a squashed thread: squash the
// subtree, release the CPU. The thread still owns its ThreadData here —
// nobody reclaims a NOSYNCed CPU but its own worker.
func (rt *Runtime) finishNoSync(c *cpu) {
	td := &c.td
	for _, child := range td.children {
		rt.cpus[child.rank].td.signal(child.epoch, syncNoSync)
	}
	td.children = td.children[:0]
	td.reason = RollbackNoSync
	rt.linearRemove(td.rank)
	rt.releaseCPU(c, td.finalTime)
}

// validateAndCommit runs local-prediction, injected and read-set validation
// and, on success, commits the write set. It returns whether the execution
// committed.
func (rt *Runtime) validateAndCommit(t *Thread, c *cpu) bool {
	model := &rt.opts.Cost
	reads := c.gb.ReadSetSize()
	writes := c.gb.WriteSetSize()
	t.clock.Charge(vclock.Validation, vclock.Cost(reads)*model.ValidatePerWord)

	td := &c.td
	if td.forceInvalid.Load() {
		td.reason = RollbackLocals
		return false
	}
	if rt.opts.RollbackProb > 0 && c.rng.float64() < rt.opts.RollbackProb {
		td.reason = RollbackInjected
		return false
	}
	if plan := rt.plan; plan != nil {
		// This seam runs on the worker outside runRegion's recover, so a
		// raised panic would crash the process: every destructive kind
		// degrades to a forced rollback here, which is what a commit-time
		// fault means for the protocol anyway.
		switch plan.Decide(faultinject.SiteCommit) {
		case faultinject.KindPanic, faultinject.KindRollback, faultinject.KindOverflow:
			td.reason = RollbackInjected
			return false
		case faultinject.KindDelay:
			time.Sleep(faultinject.Delay)
		case faultinject.KindCancel:
			rt.CancelRun()
		}
	}
	// Only the read-set words on pages stamped since the region began can
	// differ from the arena; the verdict is a full Validate's at this
	// instant.
	sw := t.clock.Start(vclock.Validation)
	if !c.gb.ValidateDirty(rt.stamps, c.snap) {
		sw.Stop()
		td.reason = RollbackValidation
		return false
	}
	sw.Lap(vclock.Commit)
	t.clock.Charge(vclock.Commit, vclock.Cost(writes)*model.CommitPerWord)
	c.gb.Commit(rt.commitStamps())
	sw.Stop()
	return true
}

// commitStamps is where a commit stamps what it writes: the runtime's table,
// or nil when the committer is the only live speculative thread. The
// non-speculative thread waits in Join for the verdict, so when active holds
// only this execution's two shares (its CPU's and its worker's) nobody can
// read the arena or fork before the verdict's atomic store publishes the
// commit, so no snapshot predates it; a sibling still claimed (a chained
// For's next link) has snapshotted the stamps at its region entry and must
// see the commit's.
func (rt *Runtime) commitStamps() *mem.WriteStamps {
	if rt.active.Load() == 2 {
		return nil
	}
	return rt.stamps
}

// bookFinalize closes the execution's buffer accounting without touching
// the buffers: the set sizes at this point are the execution's high-water
// marks (sets only grow during a region), and the virtual-mode clearing cost
// — proportional to the slots actually used — is charged, so the final time
// the verdict publishes already includes it.
func (rt *Runtime) bookFinalize(t *Thread, c *cpu) {
	reads, writes := c.gb.ReadSetSize(), c.gb.WriteSetSize()
	c.td.readPeak, c.td.writePeak = reads, writes
	t.clock.Charge(vclock.Finalize, vclock.Cost(reads+writes)*rt.opts.Cost.FinalizePerWord)
}

// clearBuffers empties the GlobalBuffer, timing it as finalize under real
// timing. It runs after the verdict is out, so it reads nothing of the
// ThreadData.
func (rt *Runtime) clearBuffers(t *Thread, c *cpu) {
	sw := t.clock.Start(vclock.Finalize)
	c.gb.Finalize()
	sw.Stop()
}

// releaseCPU returns a CPU to the IDLE pool at the given virtual free time,
// updating the most-speculative pointer for the in-order policy. The
// caller owns the ThreadData: the joining parent after valid_status, a
// NOSYNCed worker, or a forker abandoning its claim. The worker may still
// be clearing its buffers — it holds its own share of the active count
// and takes its next task only when done.
func (rt *Runtime) releaseCPU(c *cpu, freeAt vclock.Cost) {
	c.freeAt.Store(freeAt)
	// If the retiring thread was the in-order tail, the chain is fully
	// collapsed (joins are sequential) — the non-speculative thread may
	// fork in-order again.
	rt.inOrderTail.CompareAndSwap(tailWord(c.td.rank, c.td.epoch()), 0)
	c.td.validStatus.Store(validNull)
	c.td.forceInvalid.Store(false)
	// Start a new generation: stale references to the old epoch can no
	// longer signal this CPU.
	c.td.bumpEpoch()
	c.td.state.Store(cpuIdle)
	procWorking.Add(-1)
	rt.retire()
}

// linearInsert places a MixedLinear child immediately after its parent in
// the logical order (new speculations by the same thread are logically
// earlier than its previous ones, so closest-to-parent is correct).
func (rt *Runtime) linearInsert(parent Rank, child childRef) {
	rt.linearMu.Lock()
	defer rt.linearMu.Unlock()
	pos := 0 // non-speculative parent sits before index 0
	for i, r := range rt.linear {
		if r.rank == parent {
			pos = i + 1
			break
		}
	}
	rt.linear = append(rt.linear, childRef{})
	copy(rt.linear[pos+1:], rt.linear[pos:])
	rt.linear[pos] = child
}

// linearRemove drops a finished thread from the logical order.
func (rt *Runtime) linearRemove(r Rank) {
	rt.linearMu.Lock()
	defer rt.linearMu.Unlock()
	for i, x := range rt.linear {
		if x.rank == r {
			rt.linear = append(rt.linear[:i], rt.linear[i+1:]...)
			return
		}
	}
}

// linearSquash NOSYNCs every thread logically later than r — the
// Mitosis/POSH-style cascading rollback the tree model avoids.
func (rt *Runtime) linearSquash(r Rank) int {
	rt.linearMu.Lock()
	var later []childRef
	for i, x := range rt.linear {
		if x.rank == r {
			later = append(later, rt.linear[i+1:]...)
			rt.linear = rt.linear[:i+1]
			break
		}
	}
	rt.linearMu.Unlock()
	for _, x := range later {
		rt.cpus[x.rank].td.signal(x.epoch, syncNoSync)
	}
	return len(later)
}

// String describes the runtime configuration.
func (rt *Runtime) String() string {
	return fmt.Sprintf("core.Runtime{cpus: %d, timing: %v}", rt.opts.NumCPUs, rt.opts.Timing)
}
