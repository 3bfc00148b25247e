package pool

import (
	"context"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/raceflag"
	"repro/mutls"
)

// processCPU is the process's user+system CPU time.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fillLoop is a small speculated loop: enough fork/joins to send every
// worker through its mailbox several times.
func fillLoop(rt *mutls.Runtime) error {
	_, err := rt.Run(func(t *mutls.Thread) {
		p := t.Alloc(8 * 64)
		mutls.For(t, 64, mutls.ForOptions{}, func(c *mutls.Thread, i int) {
			c.StoreInt64(p+mutls.Addr(8*i), int64(i))
		})
		t.Free(p)
	})
	return err
}

// TestIdlePoolIsIdle: a pool whose runtimes have all served tenants and
// been released burns nothing — no worker spins for a fork that is not
// coming. Over 100 ms the process uses under 2 ms of CPU and no runtime
// thread is counted busy.
func TestIdlePoolIsIdle(t *testing.T) {
	p, err := New(Options{Runtimes: 4, Runtime: mutls.Options{CPUs: 2, Timing: mutls.Real}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 8; i++ {
		lease, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := fillLoop(lease.Runtime()); err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	time.Sleep(time.Millisecond) // past any spin a worker was still in
	runtime.GC()
	// The quietest of three windows counts: a spinner would burn each of
	// them whole, the Go runtime's own background work touches one at most.
	limit := 2 * time.Millisecond
	if raceflag.Enabled {
		limit *= 10 // still a fifth of what one spinner burns
	}
	used := time.Hour
	for i := 0; i < 3 && used > limit; i++ {
		start := processCPU(t)
		time.Sleep(100 * time.Millisecond)
		used = min(used, processCPU(t)-start)
	}
	if used > limit {
		t.Fatalf("idle pool used %v of CPU in 100ms", used)
	}
	if n := core.BusyThreads(); n != 0 {
		t.Fatalf("busy threads %d on an idle pool", n)
	}
}

// TestConcurrentLeasesDoNotForkPastTheProcs: two leases on two procs, both
// granted CPUs by the budget. While the first holds both procs busy (its
// non-speculative thread and one child) the second tenant's runtime refuses
// its forks itself — a child would only take turns with the threads already
// running — so it neither commits nor waits on a hand-off, and counts the
// refusals; once the first tenant lets go, the second speculates again.
func TestConcurrentLeasesDoNotForkPastTheProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, err := New(Options{Runtimes: 2, HostBudget: 4, Runtime: mutls.Options{CPUs: 2, Timing: mutls.Real}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Release()
	second, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	if first.CPUs() == 0 || second.CPUs() == 0 {
		t.Fatalf("leases got %d and %d CPUs, want both speculating", first.CPUs(), second.CPUs())
	}

	var hold, release atomic.Bool
	firstDone := make(chan error, 1)
	go func() {
		_, err := first.Runtime().Run(func(t0 *mutls.Thread) {
			ranks := make([]mutls.Rank, 1)
			if h := t0.Fork(ranks, 0, mutls.OutOfOrder); h != nil {
				h.Start(func(c *mutls.Thread) uint32 {
					for !release.Load() {
						runtime.Gosched()
					}
					return 0
				})
			}
			hold.Store(true)
			for !release.Load() {
				runtime.Gosched()
			}
			t0.Join(ranks, 0)
		})
		firstDone <- err
	}()
	// Deferred after the Releases and p.Close, so it runs before them: a
	// failing assertion must let the first tenant finish, or its lease's
	// Recycle and the pool's Close would wait for it forever.
	defer func() {
		if !release.Swap(true) {
			<-firstDone
		}
	}()
	for !hold.Load() || core.BusyThreads() < 2 {
		runtime.Gosched()
	}

	for i := 0; i < 4; i++ {
		if err := fillLoop(second.Runtime()); err != nil {
			t.Fatal(err)
		}
	}
	s := second.Runtime().Stats()
	if s.Commits != 0 || s.Rollbacks != 0 || s.HandoffSpins != 0 || s.RefusedNoProc == 0 {
		t.Fatalf("second lease with the procs exhausted: %d commits, %d rollbacks, %d spin phases, %d forks refused for want of a proc; want 0, 0, 0, > 0",
			s.Commits, s.Rollbacks, s.HandoffSpins, s.RefusedNoProc)
	}
	release.Store(true)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	second.Runtime().ResetStats()
	if err := fillLoop(second.Runtime()); err != nil {
		t.Fatal(err)
	}
	if s := second.Runtime().Stats(); s.Commits == 0 {
		t.Fatalf("the second lease did not speculate once the procs were free (%d refused for want of a proc)", s.RefusedNoProc)
	}
}
