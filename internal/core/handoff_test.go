package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gbuf"
	"repro/internal/raceflag"
	"repro/internal/vclock"
)

// always lets a bare gate spin regardless of the process's busy count.
func always() bool { return true }

func never() bool { return false }

// gateCaller brackets a goroutine that waits on a bare gate in a test: wait
// expects its caller to be counted in procBusy.
func gateCaller() func() {
	procBusy.Add(1)
	return func() { procBusy.Add(-1) }
}

// gateHangAfter is how long a gate test may run: each takes well under a
// second, under -race too.
const gateHangAfter = 5 * time.Second

// TestGateNoMissedWakeup hammers the publish-then-wake / register-then-check
// handshake: the waker publishes rounds back to back, the waiter must
// observe every one, whether it is spinning, registering or asleep when the
// publish lands. A lost wakeup fails the test by name at gateHangAfter.
func TestGateNoMissedWakeup(t *testing.T) {
	deadline(t, gateHangAfter, func() string { return "" })
	for _, spin := range []func() bool{always, never} {
		var g waitGate
		g.init()
		var ping, pong atomic.Int64
		const rounds = 20000
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer gateCaller()()
			for i := int64(1); i <= rounds; i++ {
				g.wait(func() bool { return ping.Load() >= i }, spin, false)
				pong.Store(i)
				g.wake()
			}
		}()
		done := gateCaller()
		for i := int64(1); i <= rounds; i++ {
			ping.Store(i)
			g.wake()
			g.wait(func() bool { return pong.Load() >= i }, spin, false)
		}
		done()
		wg.Wait()
		if g.parked.Load() != 0 {
			t.Fatalf("parked count %d after all waiters returned", g.parked.Load())
		}
		if n := g.spins.Load(); n < g.spunOut.Load() || g.spinHits() < 0 {
			t.Fatalf("spin phases %d, of which %d ran out", n, g.spunOut.Load())
		}
	}
}

// TestGateManyWaiters parks several waiters with different predicates on one
// gate; each publish must release exactly the waiters whose predicate holds
// and leave none behind.
func TestGateManyWaiters(t *testing.T) {
	var g waitGate
	g.init()
	deadline(t, gateHangAfter, func() string { return fmt.Sprintf("; parked = %d", g.parked.Load()) })
	var level atomic.Int64
	const waiters = 8
	var wg sync.WaitGroup
	for w := 1; w <= waiters; w++ {
		wg.Add(1)
		go func(want int64) {
			defer wg.Done()
			defer gateCaller()()
			g.wait(func() bool { return level.Load() >= want }, never, false)
		}(int64(w))
	}
	for w := 1; w <= waiters; w++ {
		time.Sleep(200 * time.Microsecond)
		level.Store(int64(w))
		g.wake()
	}
	wg.Wait()
	if g.parked.Load() != 0 {
		t.Fatalf("parked count %d", g.parked.Load())
	}
}

// forkJoinEmpty runs one empty-body fork/join and reports the join status.
func forkJoinEmpty(t0 *Thread, ranks []Rank) JoinStatus {
	if h := t0.Fork(ranks, 0, Mixed); h != nil {
		h.SetRegvarInt64(0, 1)
		h.Start(func(c *Thread) uint32 {
			c.SaveRegvarInt64(1, c.GetRegvarInt64(0)+1)
			return 0
		})
	}
	return t0.Join(ranks, 0).Status
}

// TestTaskSlotNeverDoublesOrDrops drives one CPU's mailbox as fast as the
// protocol allows: every started task must run exactly once, across runs
// (the worker parks between them) and inside them (it spins).
func TestTaskSlotNeverDoublesOrDrops(t *testing.T) {
	for _, timing := range []vclock.Mode{vclock.Virtual, vclock.Real} {
		rt := newRT(t, 1, func(o *Options) { o.Timing = timing })
		var ran atomic.Int64
		started := 0
		for run := 0; run < 20; run++ {
			rt.Run(func(t0 *Thread) {
				ranks := make([]Rank, 1)
				for i := 0; i < 200; i++ {
					h := t0.Fork(ranks, 0, Mixed)
					if h == nil {
						t.Fatal("fork refused on an idle CPU")
					}
					started++
					h.Start(func(c *Thread) uint32 { ran.Add(1); return 0 })
					if res := t0.Join(ranks, 0); !res.Committed() {
						t.Fatalf("join %v (%v)", res.Status, res.Reason)
					}
				}
			})
			if !rt.Quiescent() {
				t.Fatal("runtime not quiescent after Run")
			}
		}
		if got := ran.Load(); got != int64(started) {
			t.Fatalf("%d tasks started, %d ran", started, got)
		}
		if s := rt.Stats(); s.Commits != started {
			t.Fatalf("commits %d, want %d", s.Commits, started)
		}
	}
}

// TestCloseRacesSpinningWorker closes runtimes right after a run, while
// their workers may still be in the mailbox spin or on the way to parking.
// Close must not hang and must leave no worker behind.
func TestCloseRacesSpinningWorker(t *testing.T) {
	deadline(t, hangAfter, func() string { return "" }) // its runtimes are not newRT's
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		rt, err := NewRuntime(Options{NumCPUs: 2, Timing: vclock.Real})
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 1)
			forkJoinEmpty(t0, ranks)
		})
		rt.Close()
		if _, err := rt.RunCtx(nil, func(*Thread) {}); !errors.Is(err, ErrClosed) {
			t.Fatalf("run on closed runtime: %v", err)
		}
	}
	waitGoroutines(t, before)
	if n := BusyThreads(); n != 0 {
		t.Fatalf("busy threads %d after every runtime closed", n)
	}
}

// waitGoroutines waits for the goroutine count to fall back to a baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedClaimLeavesWorkerAlone panics between Fork and Start: the
// claimed CPU is released without its worker ever seeing a task, the drain
// returns, and the CPU serves the next fork.
func TestAbandonedClaimLeavesWorkerAlone(t *testing.T) {
	rt := newRT(t, 1, nil)
	for i := 0; i < 20; i++ {
		_, err := rt.RunCtx(nil, func(t0 *Thread) {
			ranks := make([]Rank, 1)
			if t0.Fork(ranks, 0, Mixed) == nil {
				t.Fatal("fork refused")
			}
			panic("between fork and start")
		})
		var kp *KernelPanic
		if !errors.As(err, &kp) {
			t.Fatalf("err %v", err)
		}
		if !rt.Quiescent() {
			t.Fatal("claimed CPU survived the abandoned fork")
		}
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 1)
			if st := forkJoinEmpty(t0, ranks); st != JoinCommitted {
				t.Fatalf("fork/join after an abandoned claim: %v", st)
			}
		})
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestStaleForkHandlePanics keeps a handle past its fork window. The handle
// is reused storage, so nothing but its own checks stands between a stale
// Start and a CPU that has since been released (and may be somebody else's
// claim): after Start, after the join reclaimed the CPU, and after an
// abandoned claim (not started, but released) every use must panic and
// leave the CPU idle.
func TestStaleForkHandlePanics(t *testing.T) {
	rt := newRT(t, 1, nil)
	region := func(c *Thread) uint32 { return 0 }
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.Start(region)
		if !panics(func() { h.Start(region) }) {
			t.Fatal("second Start inside the window did not panic")
		}
		if res := t0.Join(ranks, 0); !res.Committed() {
			t.Fatalf("join %v", res.Status)
		}
		if !panics(func() { h.Start(region) }) || !panics(func() { h.SetRegvarInt64(0, 1) }) {
			t.Fatal("stale handle usable after the CPU was reclaimed")
		}

		h = t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused after a stale Start")
		}
		posted := rt.cpus[1].posted.Load()
		t0.abandonOpenFork()
		ranks[0] = 0
		if !panics(func() { h.Start(region) }) {
			t.Fatal("Start on an abandoned claim did not panic")
		}
		if rt.cpus[1].td.state.Load() != cpuIdle || rt.cpus[1].posted.Load() != posted {
			t.Fatal("stale Start touched the released CPU")
		}
		if st := forkJoinEmpty(t0, ranks); st != JoinCommitted {
			t.Fatalf("fork/join after stale handle uses: %v", st)
		}
	})
	if !rt.Quiescent() {
		t.Fatal("runtime not quiescent")
	}
}

// TestJoinRestoresRegistersPastInline saves more live-outs than a
// JoinResult holds in place: all of them must come back, and an unsaved
// slot must read as not live.
func TestJoinRestoresRegistersPastInline(t *testing.T) {
	const n = inlineRegs + 5
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.Start(func(c *Thread) uint32 {
			for s := 0; s < n; s++ {
				c.SaveRegvarInt64(2*s, int64(100+s))
			}
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("join %v (%v)", res.Status, res.Reason)
		}
		for s := 0; s < n; s++ {
			if got := res.RegvarInt64(2 * s); got != int64(100+s) {
				t.Fatalf("slot %d restored %d, want %d", 2*s, got, 100+s)
			}
			if res.RegvarLive(2*s + 1) {
				t.Fatalf("slot %d was never saved but reads live", 2*s+1)
			}
		}
	})
}

// TestSquashSpinningChild ends runs with children that have stopped and are
// waiting (spinning or parked) for a join that never comes: the drain's
// NOSYNC must reach them in either state, and a child that rolled itself
// back must clean up after NOSYNC too. Three procs: under real timing two
// children run at once only where each has a proc beside the parent's.
func TestSquashSpinningChild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rt := newRT(t, 2, func(o *Options) { o.Timing = vclock.Real })
	for i := 0; i < 200; i++ {
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 2)
			if h := t0.Fork(ranks, 0, Mixed); h != nil {
				h.Start(func(c *Thread) uint32 { return 0 })
			}
			if h := t0.Fork(ranks, 1, Mixed); h != nil {
				h.Start(func(c *Thread) uint32 { c.Rollback(); return 0 })
			}
			if i%2 == 1 {
				// Let the children pass their spin budget and park.
				time.Sleep(300 * time.Microsecond)
			}
		})
		if !rt.Quiescent() {
			t.Fatal("drain returned with speculation outstanding")
		}
	}
	s := rt.Stats()
	if s.Commits != 0 || s.Rollbacks != 400 {
		t.Fatalf("commits %d rollbacks %d, want 0/400", s.Commits, s.Rollbacks)
	}
}

// TestSelfRollbackThenSyncReusesCPU covers the one hand-off where the parent
// reclaims a CPU whose worker is still waiting for the verdict: the child
// rolls itself back (verdict published early), the parent joins, releases
// and immediately forks on the same CPU again.
func TestSelfRollbackThenSyncReusesCPU(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		for i := 0; i < 500; i++ {
			h := t0.Fork(ranks, 0, Mixed)
			if h == nil {
				t.Fatal("fork refused")
			}
			if i%2 == 0 {
				h.Start(func(c *Thread) uint32 { c.Rollback(); return 0 })
				if res := t0.Join(ranks, 0); res.Status != JoinRolledBack || res.Reason != RollbackUnsafeOp {
					t.Fatalf("join %v (%v)", res.Status, res.Reason)
				}
			} else {
				h.Start(func(c *Thread) uint32 { return 0 })
				if res := t0.Join(ranks, 0); !res.Committed() {
					t.Fatalf("join %v (%v)", res.Status, res.Reason)
				}
			}
		}
	})
	if s := rt.Stats(); s.Commits != 250 || s.Rollbacks != 250 {
		t.Fatalf("commits %d rollbacks %d, want 250/250", s.Commits, s.Rollbacks)
	}
}

// TestHandoffUnderInjectedFaults runs the fork/join/commit seams under a
// seeded fault plan: whatever is injected — panics in the fork window,
// delays long enough to park either side, forced rollbacks at commit — the
// runtime drains, stays reusable and never loses or doubles a speculation.
func TestHandoffUnderInjectedFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		var rules []faultinject.Rule
		for _, site := range []faultinject.Site{faultinject.SiteFork, faultinject.SiteJoin, faultinject.SiteCommit} {
			for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindDelay, faultinject.KindRollback} {
				rules = append(rules, faultinject.Rule{Site: site, Kind: kind, Prob: 0.05})
			}
		}
		ctx := faultinject.NewContext(context.Background(), faultinject.NewPlan(seed, rules))
		rt := newRT(t, 2, nil)
		for run := 0; run < 30; run++ {
			_, err := rt.RunCtx(ctx, func(t0 *Thread) {
				ranks := make([]Rank, 1)
				for i := 0; i < 20; i++ {
					forkJoinEmpty(t0, ranks)
				}
			})
			var kp *KernelPanic
			if err != nil && !errors.As(err, &kp) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !rt.Quiescent() {
				t.Fatalf("seed %d: not quiescent after run %d", seed, run)
			}
		}
		s := rt.Stats()
		if s.Executions != s.Commits+s.Rollbacks {
			t.Fatalf("seed %d: executions %d != commits %d + rollbacks %d", seed, s.Executions, s.Commits, s.Rollbacks)
		}
	}
}

// hostParallelism times a fixed spin on one goroutine, then on two at once:
// 2.0 means the host gave this process two free cores for the probe, 1.0
// that it ran them one after the other (another test binary, a noisy
// neighbour). mutls's hand-off tests use the same probe.
func hostParallelism() float64 {
	spin := func() time.Duration {
		start := time.Now()
		x := 1.0
		for i := 0; i < 400_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		spinSink = x
		return time.Since(start)
	}
	one := spin()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); spin() }()
	}
	wg.Wait()
	return 2 * float64(one) / float64(time.Since(start))
}

var spinSink float64

// TestWorkerStaysThroughForkGaps: between two forks of a fine-grained loop
// the worker keeps its CPU. The parent works 40 µs between each join and
// the next fork — longer than a spin priced at twice a resume latency
// (its 10 µs floor on a small VM), shorter than spinBudget — so a run of 200
// empty-body fork/joins parks at most twice: the first fork may meet a
// worker parked since the last run. Two procs, real timing. A run counts
// only when the host gave it two cores: two clean parallelism probes
// bracket it, as in mutls's hand-off tests, and no fork came more than
// spinBudget after the one before (the host took a thread away for that
// long, and the waiter rightly parked). The verdict is the median of three.
func TestWorkerStaysThroughForkGaps(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two procs")
	}
	if raceflag.Enabled {
		t.Skip("the race detector stretches the hand-off past any spin budget")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	const wantClean = 3
	var clean []int64
	var probes []string
	for attempt := 0; attempt < 48 && len(clean) < wantClean; attempt++ {
		before := hostParallelism()
		_, _, parksBefore := rt.handoffCounts()
		var longest time.Duration // between two forks, after the first
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 1)
			var last time.Time
			for i := 0; i < 200; i++ {
				if i > 1 {
					longest = max(longest, time.Since(last))
				}
				last = time.Now()
				if st := forkJoinEmpty(t0, ranks); st != JoinCommitted {
					t.Errorf("fork/join %d: %v", i, st)
				}
				for start := time.Now(); time.Since(start) < 40*time.Microsecond; {
				}
			}
		})
		_, _, parksAfter := rt.handoffCounts()
		after := hostParallelism()
		parks := parksAfter - parksBefore
		probes = append(probes, fmt.Sprintf("%.2f/%.2f %v: %d parks", before, after, longest.Round(time.Microsecond), parks))
		if before >= 1.6 && after >= 1.6 && longest < spinBudget {
			clean = append(clean, parks)
		}
	}
	readings := fmt.Sprintf("host parallelism before/after each run, its longest fork-to-fork gap and its parks: %v", probes)
	if len(clean) < wantClean {
		t.Skipf("the host gave this process two free cores on %d of %d runs, need %d; %s", len(clean), len(probes), wantClean, readings)
	}
	slices.Sort(clean)
	t.Log(readings)
	if median := clean[len(clean)/2]; median > 2 {
		t.Fatalf("median clean run parked %d times in 200 fork/joins 40 µs apart, want at most 2; %s", median, readings)
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleIsIdle: a drained runtime burns nothing. After Run returns the
// workers may finish their current spin, then they are parked — over the
// next 100 ms the whole process uses under 2 ms of CPU and no thread is
// counted busy.
func TestIdleIsIdle(t *testing.T) {
	rt := newRT(t, 2, func(o *Options) { o.Timing = vclock.Real })
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		for i := 0; i < 100; i++ {
			forkJoinEmpty(t0, ranks)
		}
	})
	// A worker may still be in the spin it began at its last join: a
	// spinBudget, stretched by its yields.
	time.Sleep(2 * spinBudget)
	runtime.GC() // keep a background collection out of the window
	spins := rt.Stats().HandoffSpins
	// A spinner would burn every window whole; background work of the Go
	// runtime (a sweep finishing, the race detector) can touch one, so the
	// quietest of three windows counts.
	limit := 2 * time.Millisecond
	if raceflag.Enabled {
		limit *= 10 // still a fifth of what one spinner burns
	}
	used := time.Hour
	for i := 0; i < 3 && used > limit; i++ {
		start := cpuTime(t)
		time.Sleep(100 * time.Millisecond)
		used = min(used, cpuTime(t)-start)
	}
	if used > limit {
		t.Fatalf("idle runtime used %v of CPU in 100ms", used)
	}
	if n := BusyThreads(); n != 0 {
		t.Fatalf("busy threads %d on an idle runtime", n)
	}
	if got := rt.Stats().HandoffSpins; got != spins {
		t.Fatalf("spin phases moved %d -> %d on an idle runtime", spins, got)
	}
}

// TestNoSpinWhenOversubscribed: four virtual CPUs on two procs. Once the
// running threads outnumber the procs, no waiter enters a spin phase — a
// spinner would hold a proc a runnable thread needs. Virtual timing: it
// models more CPUs than the host has, so it still forks past the procs
// (real timing refuses those forks, TestForkAdmissionFollowsTheProcs), and
// the gates wait the same way under either clock.
func TestNoSpinWhenOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := newRT(t, 4, nil)
	var release atomic.Bool
	defer release.Store(true) // a failing assertion must not strand the children
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 4)
		// Keep three children busy: with the non-speculative thread that
		// is four threads on two procs.
		for p := 0; p < 3; p++ {
			h := t0.Fork(ranks, p, Mixed)
			if h == nil {
				t.Fatal("fork refused")
			}
			h.Start(func(c *Thread) uint32 {
				for !release.Load() {
					runtime.Gosched()
				}
				return 0
			})
		}
		for BusyThreads() < 4 {
			runtime.Gosched() // until every child is on its way
		}
		spinsBefore, _, _ := rt.handoffCounts()
		// Fork/joins on the fourth CPU now wait with the procs exhausted.
		for i := 0; i < 50; i++ {
			h := t0.Fork(ranks, 3, Mixed)
			if h == nil {
				t.Fatal("fork refused")
			}
			h.Start(func(c *Thread) uint32 { return 0 })
			if res := t0.Join(ranks, 3); !res.Committed() {
				t.Fatalf("join %v (%v)", res.Status, res.Reason)
			}
		}
		if spins, _, parks := rt.handoffCounts(); spins != spinsBefore {
			t.Errorf("%d spin phases entered with 4 busy threads on 2 procs (parks %d)", spins-spinsBefore, parks)
		}
		release.Store(true)
		for p := 0; p < 3; p++ {
			t0.Join(ranks, p)
		}
	})
}

// TestSpinOffOnOneProc: with a single proc a spinner can only delay the
// thread it waits for.
func TestSpinOffOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		for i := 0; i < 100; i++ {
			forkJoinEmpty(t0, ranks)
		}
	})
	if s := rt.Stats(); s.HandoffSpins != 0 || s.Commits != 100 {
		t.Fatalf("spin phases %d commits %d on one proc, want 0/100", s.HandoffSpins, s.Commits)
	}
}

// TestRealModeBooksHandoffLatency checks where the real-mode ledger puts a
// slow hand-off: the child's wake-up shows as fork time in its own ledger
// and the joiner's wait splits at the child's verdict stamp.
func TestRealModeBooksHandoffLatency(t *testing.T) {
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.Start(func(c *Thread) uint32 {
			time.Sleep(3 * time.Millisecond) // work still running: the joiner idles
			return 0
		})
		if res := t0.Join(ranks, 0); !res.Committed() {
			t.Fatalf("join %v", res.Status)
		}
	})
	s := rt.Stats()
	if idle := s.NonSpecLedger[vclock.Idle]; idle < int64(2*time.Millisecond) {
		t.Errorf("joiner idle %v while the child worked for 3ms", time.Duration(idle))
	}
	// Generous upper bound: on a loaded host the parked joiner's wake-up can
	// take milliseconds, but never the child's whole working time again.
	if join := s.NonSpecLedger[vclock.Join]; join <= 0 || join > int64(20*time.Millisecond) {
		t.Errorf("joiner join time %v, want the verdict-to-running gap", time.Duration(join))
	}
	if fork := s.SpecLedger[vclock.Fork]; fork <= 0 {
		t.Errorf("child fork time %v, want its start-stamp to region-entry gap", time.Duration(fork))
	}
	if got, want := s.SpecLedger.Total(), s.SpecRuntime; got != want {
		t.Errorf("child ledger %d does not fill its occupied interval %d", got, want)
	}
}

// BenchmarkForkJoin is one empty-body fork -> join round trip between two
// threads that both have a core: the cost the runtime adds to every
// speculation before it does any work. The committed path must not
// allocate.
func BenchmarkForkJoin(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := newRT(b, 1, func(o *Options) { o.Timing = vclock.Real })
	region := func(c *Thread) uint32 {
		c.SaveRegvarInt64(1, c.GetRegvarInt64(0))
		return 0
	}
	b.ReportAllocs()
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := t0.Fork(ranks, 0, OutOfOrder)
			if h == nil {
				b.Fatal("fork refused")
			}
			h.SetRegvarInt64(0, int64(i))
			h.Start(region)
			if res := t0.Join(ranks, 0); !res.Committed() || res.RegvarInt64(1) != int64(i) {
				b.Fatalf("join %v", res.Status)
			}
		}
		b.StopTimer()
	})
	s := rt.Stats()
	b.ReportMetric(float64(s.HandoffParks)/float64(b.N), "parks/op")
}

// BenchmarkForkRefused is one refused fork: the CPU limit is 0, so Fork
// gets past every cheap refusal and finds no CPU to claim — what a driver
// pays for each chunk a pool's lease runs inline. A refused fork reads no
// clock and must not allocate.
func BenchmarkForkRefused(b *testing.B) {
	rt := newRT(b, 1, func(o *Options) { o.Timing = vclock.Real })
	rt.SetCPULimit(0)
	b.ReportAllocs()
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t0.Fork(ranks, 0, OutOfOrder) != nil {
				b.Fatal("fork granted at CPU limit 0")
			}
		}
		b.StopTimer()
	})
}

// TestForkJoinDoesNotAllocate pins the benchmarks' allocs/op at zero: the
// round trip's and the refusal's.
func TestForkJoinDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet run")
	}
	deadline(t, hangAfter, func() string { return "" }) // the benchmark's runtime has no watchdog
	if a := testing.Benchmark(BenchmarkForkJoin).AllocsPerOp(); a != 0 {
		t.Fatalf("fork/join round trip allocates %d objects per op", a)
	}
	if a := testing.Benchmark(BenchmarkForkRefused).AllocsPerOp(); a != 0 {
		t.Fatalf("a refused fork allocates %d objects per op", a)
	}
}

// TestVerdictNeverOutlivesItsExecution drives one CPU through rounds of
// three kinds in turn — a commit, a rollback forced by a mispredicted
// live-in (ValidateRegvarInt64), and a NOSYNC squash (a Join on a rank the
// children stack does not hold) — on every backend and under both clocks.
// Nothing but releaseCPU resets the CPU and the verdict, the forced
// invalidation and the signal are tagged with the execution's epoch, so at
// each claim none of them may read as the new execution's, and each join
// must report its own round's outcome, counter and registers.
func TestVerdictNeverOutlivesItsExecution(t *testing.T) {
	const rounds = 10000
	for timing, clock := range map[vclock.Mode]string{vclock.Virtual: "virtual", vclock.Real: "real"} {
		for _, backend := range gbuf.Backends() {
			t.Run(clock+"/"+backend, func(t *testing.T) {
				rt := newRT(t, 1, func(o *Options) {
					o.Timing = timing
					o.GBuf = gbuf.Config{Backend: backend}
				})
				commits := 0
				rt.Run(func(t0 *Thread) {
					p := t0.Alloc(8)
					ranks := make([]Rank, 2)
					last := int64(-1) // the word's value after the last commit
					for i := 0; i < rounds; i++ {
						h := t0.Fork(ranks, 0, Mixed)
						for h == nil {
							// A squashed child releases its CPU itself.
							t0.Tick(1000)
							runtime.Gosched()
							h = t0.Fork(ranks, 0, Mixed)
						}
						td, task := &rt.cpus[1].td, &rt.cpus[1].task
						if v := td.verdict(h.epoch); v != validNull {
							t.Fatalf("round %d: the new execution already reads verdict %d", i, v)
						}
						if td.forceInvalid.Load() == h.epoch+1 || td.syncStatus() != syncNull || len(td.children) != 0 || task.in.n != 0 {
							t.Fatalf("round %d: the claim found the last execution's state", i)
						}
						h.SetRegvarInt64(0, int64(i))
						h.Start(func(c *Thread) uint32 {
							v := c.GetRegvarInt64(0)
							c.StoreInt64(p, v)
							c.SaveRegvarInt64(1, 2*v+1)
							return uint32(1 + v%7)
						})
						switch i % 3 {
						case 0:
							res := t0.Join(ranks, 0)
							if !res.Committed() || res.Counter != uint32(1+i%7) || res.RegvarInt64(1) != int64(2*i+1) ||
								res.RegvarInt64(0) != int64(i) || res.RegvarLive(2) {
								t.Fatalf("round %d: commit joined %v (%v), counter %d", i, res.Status, res.Reason, res.Counter)
							}
							commits++
							last = int64(i)
						case 1:
							t0.ValidateRegvarInt64(ranks, 0, 0, int64(i+1))
							if res := t0.Join(ranks, 0); res.Status != JoinRolledBack || res.Reason != RollbackLocals {
								t.Fatalf("round %d: mispredicted live-in joined %v (%v)", i, res.Status, res.Reason)
							}
						case 2:
							ranks[1] = Rank(2)
							if res := t0.Join(ranks, 1); res.Status != JoinRolledBack || res.Reason != RollbackNoSync {
								t.Fatalf("round %d: squash joined %v (%v)", i, res.Status, res.Reason)
							}
							ranks[0] = 0
						}
						if got := t0.LoadInt64(p); got != last {
							t.Fatalf("round %d: word %d after the join, want %d", i, got, last)
						}
					}
				})
				if s := rt.Stats(); s.Commits != commits || s.Commits+s.Rollbacks != rounds {
					t.Fatalf("commits %d rollbacks %d, want %d of %d", s.Commits, s.Rollbacks, commits, rounds)
				}
			})
		}
	}
}
