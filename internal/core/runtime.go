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
// RECLAIM, initialized IDLE at program start. A claim (MUTLS_get_CPU) sets
// RUNNING: the window up to MUTLS_speculate is the forker's.
const (
	cpuIdle int32 = iota
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

// valid_status values, stored under the epoch they were published in like
// sync_status: the release's epoch bump retires a verdict.
const (
	validNull uint64 = iota
	validCommit
	validRollback
)

// threadData is the paper's ThreadData module: the status of one
// speculative thread, its fields grouped by writer a cache line apart.
// Only releaseCPU resets any; the epoch-tagged words need no reset.
type threadData struct {
	rank Rank

	// The parent's group: written by whoever claims, forks, signals, releases.
	state atomic.Int32
	// syncWord packs (epoch << 2) | sync_status. Signalling SYNC or NOSYNC
	// is a CAS against (epoch<<2)|NULL, so signals to stale epochs fail
	// harmlessly.
	syncWord atomic.Uint64
	// forceInvalid is epoch+1 of the execution whose live register the
	// parent's MUTLS_validate_local found mispredicted; it then rolls back.
	forceInvalid atomic.Uint64
	// syncTime is the parent's clock when it signals SYNC (virtual mode).
	syncTime atomic.Int64
	freeAt   atomic.Int64 // virtual time when the CPU is next available
	guarded  bool         // forked by ForkBody under a kept estimate: Join folds its cost in
	model    Model
	_        [64]byte

	// The verdict's group: written by the worker up to the valid_status
	// store, read by the joiner after it; from that store on the parent may
	// reclaim the CPU, so the worker touches none of it past the store.
	validStatus atomic.Uint64 // (epoch << 2) | valid_status
	stopCounter uint32
	reason      RollbackReason
	finalTime   vclock.Cost
	wakeNS      int64 // the hand-off latency, claim stamp to region entry
	children    []childRef
	// What a committing join restores, copied out of the LocalBuffer by
	// handBack.
	out      regList
	frames   []lbuf.FrameRecord
	ptrs     []lbuf.PtrMapping
	stackOut [][]byte
	_        [64]byte

	// joinGate blocks the joiner waiting for valid_status; workGate the
	// worker waiting for its next task or for sync_status.
	joinGate waitGate
	workGate waitGate

	// forkRegs keeps the parent's fork-time register predictions for
	// MUTLS_validate_local (separate from the LocalBuffer, which the child
	// overwrites at a stop point); forkLive[s] is epoch+1 of the fork that
	// set slot s. Only the parent touches them.
	forkRegs []uint64
	forkLive []uint64
}

// epoch returns the CPU's current generation.
func (td *threadData) epoch() uint64 { return td.syncWord.Load() >> syncStatusBits }

// syncStatus returns the current sync_status bits.
func (td *threadData) syncStatus() uint64 { return td.syncWord.Load() & syncStatusMask }

// verdict returns the valid_status published under epoch e, validNull
// while there is none.
func (td *threadData) verdict(e uint64) uint64 {
	if v := td.validStatus.Load(); v>>syncStatusBits == e {
		return v & syncStatusMask
	}
	return validNull
}

// signal CASes sync_status from NULL to the given status under the given
// epoch. It fails — harmlessly — when the epoch is stale (the CPU was
// reclaimed) or a different signal won the race. A successful signal
// wakes the CPU's worker, which may be parked in waitSync.
func (td *threadData) signal(epoch, status uint64) bool {
	base := epoch << syncStatusBits
	if td.syncWord.CompareAndSwap(base|syncNull, base|status) {
		td.workGate.wake()
		return true
	}
	return false
}

// tailWord packs a speculative thread's identity for the in-order tail
// pointer; the non-speculative thread is 0.
func tailWord(rank Rank, epoch uint64) uint64 {
	return epoch<<8 | uint64(rank)
}

// cpu bundles one virtual CPU: its ThreadData, GlobalBuffer (a per-runtime
// gbuf.Backend) and LocalBuffer — the triple the paper's ThreadManager keeps
// per CPU — plus the worker's mailbox and what only the worker touches.
type cpu struct {
	td threadData
	gb gbuf.Backend
	lb *lbuf.Buffer

	// The worker's mailbox, written only in the fork window: Start fills
	// task and stores the fork's epoch+1 in posted (on a line of its own:
	// the idle worker spins on it); the worker runs a task once posted
	// differs from the last it took, so the slot never holds two.
	_      [64]byte
	posted atomic.Uint64
	_      [64]byte
	task   specTask
	_      [64]byte

	// The worker's own: the last posted value it took and the last it has
	// finished folding, and the reused speculative thread and clock.
	taken    uint64
	finished atomic.Uint64
	thread   Thread
	clock    vclock.Clock

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
	// startAt is the child's clock at entry: the forker's stamp at its
	// claim (real mode), or the later of its clock at Start and the CPU's
	// virtual free time.
	startAt vclock.Cost
	epoch   uint64
	point   int
	// The live-ins, in the order the parent saved them.
	in     regList
	inVars []stackIn
}

// stackIn is one stack-variable live-in saved in the fork window.
type stackIn struct {
	slot int
	home mem.Addr
	data []byte
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

	// active counts claimed virtual CPUs, on a line of its own. Draining
	// waits for none, and no worker still folding (Quiescent): an all-IDLE
	// scan is not enough, because a not-yet-squashed thread can fork onto
	// a CPU the scan already passed.
	_      [64]byte
	active atomic.Int64
	_      [56]byte

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

	// drainGate blocks the non-speculative thread in drain until the
	// runtime is quiescent; every release and every worker's end wakes it.
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
		c.td.joinGate.init()
		c.td.workGate.init()
		c.td.forkRegs = make([]uint64, o.LBuf.RegSlots)
		c.td.forkLive = make([]uint64, o.LBuf.RegSlots)
		c.thread = Thread{rt: rt, rank: Rank(r), cpu: c, clock: &c.clock, stack: stack, speculative: true}
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
		rt.cpus[r].td.freeAt.Store(0)
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
		spinHits += g.spinHits()
		parks += g.parks.Load()
	})
	return spins, spinHits, parks
}

// eachGate visits the drain gate and every virtual CPU's two gates.
func (rt *Runtime) eachGate(fn func(g *waitGate)) {
	fn(&rt.drainGate)
	for r := 1; r <= rt.opts.NumCPUs; r++ {
		fn(&rt.cpus[r].td.joinGate)
		fn(&rt.cpus[r].td.workGate)
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
		g.spunOut.Store(0)
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
		rt.cpus[r].td.workGate.wake()
	}
	rt.wg.Wait()
}

// Quiescent reports whether no virtual CPU is claimed and no worker is
// inside a speculation — the precondition for Recycle and the pool's
// reuse-after-fault verification.
// With no CPU claimed no region runs that could post a task.
func (rt *Runtime) Quiescent() bool {
	q := rt.active.Load() == 0
	for r := 1; q && r <= rt.opts.NumCPUs; r++ {
		q = rt.cpus[r].finished.Load() == rt.cpus[r].posted.Load()
	}
	return q
}

// worker is a virtual CPU's goroutine: it waits for a task in its mailbox
// and runs it through the stop/validate/commit protocol. Between two
// speculations of a run it spins for the next fork (idleSpin) before it
// parks, so a chain of forks on this CPU never pays a wake-up.
func (rt *Runtime) worker(c *cpu) {
	defer rt.wg.Done()
	procBusy.Add(1)
	defer procBusy.Add(-1)
	for {
		c.td.workGate.wait(func() bool { return c.posted.Load() != c.taken || rt.closed.Load() }, rt.idleSpin, false)
		posted := c.posted.Load()
		if posted == c.taken {
			return // closed
		}
		c.taken = posted
		rt.runSpec(c, &c.task)
		c.finished.Store(posted)
		rt.drainGate.wake()
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
// it exists. Everything the joiner reads is stored right before
// valid_status; clearing the buffers and closing the ledger come after, on
// this worker's time, from locals and worker-owned state only: from that
// store on the parent may reclaim the CPU and refill the mailbox. Under real
// timing one stopwatch runs from the region's end, each clock reading ending
// one phase and starting the next.
func (rt *Runtime) runSpec(c *cpu, task *specTask) {
	t := &c.thread
	t.stackTop, t.openFork = c.stack.Start, nil
	c.clock.Init(rt.opts.Timing, &rt.opts.Cost, rt.epoch)
	c.clock.SetNow(task.startAt)
	// The execution occupies its CPU from the fork's claim. Under real
	// timing the gap up to here is the hand-off latency, booked as fork
	// time; under virtual timing there is no gap.
	wakeNS := c.clock.Now() - task.startAt
	c.clock.Book(vclock.Fork, wakeNS)
	td, epoch := &c.td, task.epoch
	// The stub's side of the live-ins.
	for i := 0; i < task.in.n; i++ {
		r := task.in.at(i)
		c.lb.SetRegvar(int(r.slot), r.val) // in range: setRegvar checked
	}
	for _, v := range task.inVars {
		c.lb.SetStackvar(v.slot, v.home, v.data)
	}
	var wallStart int64
	if d := int64(rt.opts.SpecDeadline); d > 0 {
		// The runaway deadline, fixed at region entry and stretched for a
		// point whose regions are legitimately slow: CheckPoint rolls the
		// execution back at its first poll past it.
		wallStart = time.Now().UnixNano()
		c.deadline = wallStart + max(d, 8*rt.points[task.point].wallEWMA.Load())
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
	verdict, reason, counter := validRollback, out.reason, uint32(0)
	awaitSync := false
	var sw vclock.Stopwatch
	if out.rolledBack {
		if out.reason == RollbackFault {
			rt.collector.CountSpecPanic(stats.FaultRecord{
				Rank:  int(td.rank),
				Point: task.point,
				Value: fmt.Sprint(out.panicVal),
				Stack: truncateStack(out.panicStack),
			})
		}
		// Self-detected rollback (invalid address, overflow exhaustion,
		// unsafe op, fault): ROLLBACK is published at once, and the thread
		// then waits for the parent's signal so children are handed to
		// exactly one side. Whatever the signal, the execution counts as a
		// rollback.
		td.state.Store(cpuReady)
		awaitSync = true
		sw = t.clock.Start(vclock.Finalize)
	} else {
		// Stopped at a check point, barrier point, terminate point or the
		// region's end. Publish the stop, then wait for the join signal. A
		// thread stopped by a hash-conflict overflow waits on overflow time.
		waitPhase := vclock.Idle
		if c.gb.MustStop() {
			waitPhase = vclock.Overflow
		}
		counter = out.counter
		td.state.Store(cpuReady)
		var st uint64
		if st, sw = rt.waitSync(t, c, epoch, waitPhase, vclock.Validation); st == syncNoSync {
			verdict = validNull
		} else {
			// Both threads have stopped: the speculative thread validates
			// and commits or rolls back (paper §IV-E).
			t.clock.AdvanceTo(td.syncTime.Load(), waitPhase)
			if reason = rt.validateAndCommit(t, c, epoch, &sw); reason == RollbackNone {
				verdict = validCommit
			}
		}
	}

	// The fold, first half: the point's counters, before the verdict.
	reads, writes := rt.bookFinalize(t, c)
	now := sw.Lap(vclock.Finalize)
	rec := stats.ExecRecord{
		Rank:         int(td.rank),
		Start:        task.startAt,
		Committed:    verdict == validCommit,
		ReadSetPeak:  reads,
		WriteSetPeak: writes,
	}
	rt.points[task.point].observe(execOutcome{
		committed: rec.Committed,
		fault:     out.reason == RollbackFault,
		latency:   now - task.startAt,
		wallNS:    wallNS,
	})
	if verdict == validCommit {
		c.handBack()
	}
	if verdict != validNull {
		// The parent adopts children, copies locals and reclaims the CPU
		// from here on; the rest is this worker's own housekeeping.
		td.stopCounter, td.reason, td.finalTime, td.wakeNS = counter, reason, now, wakeNS
		td.validStatus.Store(epoch<<syncStatusBits | verdict)
		td.joinGate.wake()
	}
	c.gb.Finalize()
	c.lb.Reset()
	rec.End = sw.Stop()
	if awaitSync {
		var st uint64
		if st, sw = rt.waitSync(t, c, epoch, vclock.Idle, vclock.Idle); st == syncNoSync {
			verdict = validNull
		}
		rec.End = sw.Stop()
	}
	if verdict == validNull {
		rt.finishNoSync(c, now)
	}

	// Second half: the occupied interval and its ledger, closed only now so
	// that real-mode finalize time and the waits above are booked.
	rec.Ledger = t.clock.Ledger()
	rt.collector.Add(rec)
}

// handBack copies what a committing join restores out of the LocalBuffer
// into the verdict's group, so the worker alone touches its buffer.
func (c *cpu) handBack() {
	td, lb := &c.td, c.lb
	td.out.reset()
	for _, s := range lb.EntryLive() {
		td.out.add(regPair{slot: s, val: lb.EntryReg(s)})
	}
	// A store of nil over nil would take the line from the joiner.
	if frames := lb.Records(); frames != nil || td.frames != nil {
		td.frames = frames
	}
	if ptrs := lb.PtrMappings(); ptrs != nil || td.ptrs != nil {
		td.ptrs = ptrs
		td.stackOut = td.stackOut[:0]
		for _, m := range ptrs {
			// The bytes stay in the buffer's slot, untouched by Reset,
			// until the next execution on this CPU.
			data, _ := lb.EntryStackvarData(m.Slot)
			td.stackOut = append(td.stackOut, data)
		}
	}
}

// waitSync waits (time-bounded spin, then parked) until the parent signals
// SYNC or NOSYNC on the execution's epoch and returns the signal, with a
// stopwatch on phase next from when it was seen; a wait is booked to phase.
// The predicate keeps the one word it loaded: a self-rolled-back execution
// has published its verdict already, so after SYNC the parent may reclaim
// the CPU — bumping the epoch and clearing sync_status — before this thread
// looks again. An epoch that moved on therefore means SYNC: a NOSYNCed
// thread releases its CPU itself.
func (rt *Runtime) waitSync(t *Thread, c *cpu, epoch uint64, phase, next vclock.Phase) (uint64, vclock.Stopwatch) {
	null := epoch << syncStatusBits
	w := c.td.syncWord.Load()
	var sw vclock.Stopwatch
	if w == null {
		sw = t.clock.Start(phase)
		c.td.workGate.wait(func() bool {
			w = c.td.syncWord.Load()
			return w != null
		}, rt.spareProc, true)
		sw.Lap(next)
	} else {
		sw = t.clock.Start(next)
	}
	if w>>syncStatusBits != epoch {
		return syncSync, sw
	}
	return w & syncStatusMask, sw
}

// finishNoSync is the self-cleanup of a squashed thread: squash the
// subtree, release the CPU. The thread still owns its ThreadData here —
// nobody reclaims a NOSYNCed CPU but its own worker.
func (rt *Runtime) finishNoSync(c *cpu, now vclock.Cost) {
	for _, child := range c.td.children {
		rt.cpus[child.rank].td.signal(child.epoch, syncNoSync)
	}
	rt.linearRemove(c.td.rank)
	rt.releaseCPU(c, now)
}

// validateAndCommit runs local-prediction, injected and read-set validation
// and, on success, commits the write set, returning the rollback reason
// (RollbackNone: committed). sw runs on validation, then on commit.
func (rt *Runtime) validateAndCommit(t *Thread, c *cpu, epoch uint64, sw *vclock.Stopwatch) RollbackReason {
	model := &rt.opts.Cost
	reads := c.gb.ReadSetSize()
	writes := c.gb.WriteSetSize()
	t.clock.Charge(vclock.Validation, vclock.Cost(reads)*model.ValidatePerWord)

	if c.td.forceInvalid.Load() == epoch+1 {
		return RollbackLocals
	}
	if rt.opts.RollbackProb > 0 && c.rng.float64() < rt.opts.RollbackProb {
		return RollbackInjected
	}
	if plan := rt.plan; plan != nil {
		// This seam runs on the worker outside runRegion's recover, so a
		// raised panic would crash the process: every destructive kind
		// degrades to a forced rollback here, which is what a commit-time
		// fault means for the protocol anyway.
		switch plan.Decide(faultinject.SiteCommit) {
		case faultinject.KindPanic, faultinject.KindRollback, faultinject.KindOverflow:
			return RollbackInjected
		case faultinject.KindDelay:
			time.Sleep(faultinject.Delay)
		case faultinject.KindCancel:
			rt.CancelRun()
		}
	}
	// Only the read-set words on pages stamped since the region began can
	// differ from the arena; the verdict is a full Validate's at this
	// instant.
	if !c.gb.ValidateDirty(rt.stamps, c.snap) {
		return RollbackValidation
	}
	sw.Lap(vclock.Commit)
	t.clock.Charge(vclock.Commit, vclock.Cost(writes)*model.CommitPerWord)
	c.gb.Commit(rt.commitStamps())
	return RollbackNone
}

// commitStamps is where a commit stamps what it writes: the runtime's table,
// or nil when the committer is the only live speculative thread. The
// non-speculative thread waits in Join for the verdict, so when this
// execution's CPU is the only one claimed nobody can read the arena or fork
// before the verdict's store publishes the commit; a sibling still claimed
// (a chained For's next link) has snapshotted the stamps at its region
// entry and must see the commit's.
func (rt *Runtime) commitStamps() *mem.WriteStamps {
	if rt.active.Load() == 1 {
		return nil
	}
	return rt.stamps
}

// bookFinalize closes the execution's buffer accounting without touching
// the buffers: the set sizes at this point are the execution's high-water
// marks (sets only grow during a region), which it returns, and charges
// the virtual-mode clearing cost, so the verdict's final time includes it.
func (rt *Runtime) bookFinalize(t *Thread, c *cpu) (reads, writes int) {
	reads, writes = c.gb.ReadSetSize(), c.gb.WriteSetSize()
	t.clock.Charge(vclock.Finalize, vclock.Cost(reads+writes)*rt.opts.Cost.FinalizePerWord)
	return reads, writes
}

// releaseCPU returns a CPU to the IDLE pool at the given virtual free time,
// updating the most-speculative pointer for the in-order policy. The
// caller owns the ThreadData: the joining parent after valid_status, a
// NOSYNCed worker, or a forker abandoning its claim. It is the one place a
// ThreadData is reset: the children stack is emptied, and the epoch bump
// retires the signal, verdict and forced invalidation tagged with it. The
// worker may still be clearing its buffers; it takes the next task after.
func (rt *Runtime) releaseCPU(c *cpu, freeAt vclock.Cost) {
	td := &c.td
	if rt.opts.Timing == vclock.Virtual {
		td.freeAt.Store(freeAt)
	}
	// If the retiring thread was the in-order tail, the chain is fully
	// collapsed (joins are sequential) — the non-speculative thread may
	// fork in-order again.
	epoch := td.epoch()
	if w := tailWord(td.rank, epoch); rt.inOrderTail.Load() == w {
		rt.inOrderTail.CompareAndSwap(w, 0)
	}
	td.children = td.children[:0]
	// A new generation with sync_status NULL: stale references can no
	// longer signal this CPU.
	td.syncWord.Store((epoch + 1) << syncStatusBits)
	td.state.Store(cpuIdle)
	procWorking.Add(-1)
	rt.active.Add(-1)
	rt.drainGate.wake()
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
