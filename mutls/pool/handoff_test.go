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

// TestConcurrentLeasesDoNotSpinPastTheProcs: two leases on two procs. The
// first holds both procs busy (its non-speculative thread and one child);
// the second tenant's threads then outnumber the procs from their first
// instruction, so none of its waits may enter a spin phase — it completes
// on parked hand-offs alone.
func TestConcurrentLeasesDoNotSpinPastTheProcs(t *testing.T) {
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
	second, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.CPUs() == 0 || second.CPUs() == 0 {
		t.Fatalf("leases got %d and %d CPUs, want both speculating", first.CPUs(), second.CPUs())
	}

	var hold, release atomic.Bool
	defer release.Store(true) // a failing assertion must not strand the first tenant
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
	for !hold.Load() || core.BusyThreads() < 2 {
		runtime.Gosched()
	}

	for i := 0; i < 4; i++ {
		if err := fillLoop(second.Runtime()); err != nil {
			t.Fatal(err)
		}
	}
	s := second.Runtime().Stats()
	if s.Commits == 0 {
		t.Fatal("the second lease never speculated")
	}
	if s.HandoffSpins != 0 {
		t.Errorf("second lease entered %d spin phases with the procs exhausted (parks %d)", s.HandoffSpins, s.HandoffParks)
	}
	release.Store(true)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	second.Release()
	first.Release()
}
