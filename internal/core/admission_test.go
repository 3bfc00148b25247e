package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// These tests drive host-aware fork admission (gate.go, hostFull) without a
// clock: another runtime's threads are put into a known state, and a fork is
// tried beside them.

// awaitCount waits for a process-wide count to reach want.
func awaitCount(t *testing.T, what string, count *atomic.Int32, want int32) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() != want {
		if time.Now().After(deadline) {
			t.Errorf("%s threads %d, want %d", what, count.Load(), want)
			return false
		}
		runtime.Gosched()
	}
	return true
}

// holdRun starts a real-timing run on a runtime of its own, takes it through
// shape (which may leave a child on ranks[0]) and then keeps its thread busy
// until the test ends. It returns once shape is done.
func holdRun(t *testing.T, shape func(t0 *Thread, ranks []Rank, release *atomic.Bool)) {
	t.Helper()
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	var ready, release atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(t0 *Thread) {
			ranks := make([]Rank, 1)
			shape(t0, ranks, &release)
			ready.Store(true)
			for !release.Load() {
				runtime.Gosched()
			}
			t0.Join(ranks, 0)
		})
	}()
	// Registered after newRT's Close, so it runs before it.
	t.Cleanup(func() {
		release.Store(true)
		<-done
	})
	for !ready.Load() {
		runtime.Gosched()
	}
}

// The states the other runtime's child is left in.
func busyChild(t0 *Thread, ranks []Rank, release *atomic.Bool) {
	t0.Fork(ranks, 0, Mixed).Start(func(c *Thread) uint32 {
		for !release.Load() {
			runtime.Gosched()
		}
		return 0
	})
}

func stoppedChild(t0 *Thread, ranks []Rank, _ *atomic.Bool) {
	t0.Fork(ranks, 0, Mixed).Start(func(c *Thread) uint32 { return 0 })
}

func joinedChild(t0 *Thread, ranks []Rank, _ *atomic.Bool) { forkJoinEmpty(t0, ranks) }

// forkBeside runs one fork/join on a fresh runtime once the process counts
// working threads, this run's own among them, and reports whether the fork
// went through and how many the run counted as refused for want of a proc.
func forkBeside(t *testing.T, timing vclock.Mode, working int32) (forked bool, refused int64) {
	t.Helper()
	rt := newRT(t, 1, func(o *Options) { o.Timing = timing })
	rt.Run(func(t0 *Thread) {
		if !awaitCount(t, "working", &procWorking.Int32, working) {
			return
		}
		ranks := make([]Rank, 1)
		forked = forkJoinEmpty(t0, ranks) == JoinCommitted
	})
	s := rt.Stats()
	if got := int64(s.PerPoint[0].RefusedNoProc); got != s.RefusedNoProc {
		t.Errorf("point 0 counts %d forks refused for want of a proc, the summary %d", got, s.RefusedNoProc)
	}
	return forked, s.RefusedNoProc
}

// TestForkAdmissionFollowsTheProcs: three procs, another runtime's run in
// flight, and this run's own thread counting as one. A fork is refused — and
// counted — exactly while the other run's thread and child are both working;
// a child parked on its gate, or a worker waiting at its empty mailbox, holds
// no proc. Virtual timing models CPUs the host does not have and forks
// whatever the host is doing.
func TestForkAdmissionFollowsTheProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, tc := range []struct {
		name    string
		shape   func(*Thread, []Rank, *atomic.Bool)
		working int32 // with the forking run's own thread
		refuse  bool  // under real timing
	}{
		{"thread and child busy", busyChild, 3, true},
		// The stopped child waits for its join: it spins, then parks.
		{"child parked on its gate", stoppedChild, 2, false},
		// The joined child's worker is at its mailbox, spinning while its
		// run is in flight; it was never counted as working.
		{"worker at its empty mailbox", joinedChild, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			holdRun(t, tc.shape)
			forked, refused := forkBeside(t, vclock.Real, tc.working)
			if forked == tc.refuse || (refused == 1) != tc.refuse {
				t.Errorf("real timing, %d working threads on 3 procs: forked %v, %d refused for want of a proc", tc.working, forked, refused)
			}
			if forked, refused := forkBeside(t, vclock.Virtual, tc.working); !forked || refused != 0 {
				t.Errorf("virtual timing: forked %v, %d refused for want of a proc; want a fork", forked, refused)
			}
		})
	}
}

// TestForkAdmissionOffOnOneProc: with a single proc the rule would refuse
// every fork of every run, and the protocol would go unexercised there.
func TestForkAdmissionOffOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	holdRun(t, busyChild)
	if forked, refused := forkBeside(t, vclock.Real, 3); !forked || refused != 0 {
		t.Errorf("3 working threads on 1 proc: forked %v, %d refused for want of a proc; want a fork", forked, refused)
	}
}

// TestRunCountsSurviveGoexit: a run left through runtime.Goexit — a t.Fatal
// inside its callback — with a child outstanding still drains and gives its
// counts back: nothing stays busy, and another runtime's next run forks.
func TestRunCountsSurviveGoexit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := newRT(t, 1, func(o *Options) { o.Timing = vclock.Real })
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(t0 *Thread) {
			stoppedChild(t0, make([]Rank, 1), nil)
			runtime.Goexit()
		})
	}()
	<-done
	if !rt.Quiescent() {
		t.Fatal("the abandoned run left speculation outstanding")
	}
	// The workers may still be in their mailbox spin.
	awaitCount(t, "busy", &procBusy, 0)
	if n := procWorking.Load(); n != 0 {
		t.Fatalf("working threads %d after the run's goroutine exited", n)
	}
	if forked, refused := forkBeside(t, vclock.Real, 1); !forked || refused != 0 {
		t.Fatalf("next run on another runtime: forked %v, %d refused for want of a proc", forked, refused)
	}
}
