package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// waitReady spins until the CPU occupied by rank has published its stop
// (white-box: the parent can then interfere with stores that are
// guaranteed to postdate every load of the region).
func waitReady(rt *Runtime, r Rank) {
	for rt.cpus[r].td.state.Load() != cpuReady {
		runtime.Gosched()
	}
}

// withProcs raises GOMAXPROCS for the test's duration, so that real-timing
// fork admission (hostFull) finds a free proc for every child the test
// wants live at once.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// A speculation snapshots the stamp table before its first load, and its
// join compares only the read-set runs on pages stamped since. The tests
// below fork one region that reads word x of a fresh allocation and writes
// it, doubled, to word y, and differ only in when the parent writes x: never,
// while the region runs, or after it stopped. Each runs on every backend.

// snapshotCase runs that region under a backend. at places x (nil: a heap
// allocation). interfere runs on the parent while the region waits between
// its load and its end (the region has read x and published it); after
// runs once the region has stopped. It returns the join and the runtime's
// GlobalBuffer counters.
func snapshotCase(t *testing.T, backend string, at func(t0 *Thread) mem.Addr, interfere, after func(t0 *Thread, x mem.Addr)) (JoinResult, gbuf.Counters) {
	t.Helper()
	rt := newRT(t, 1, func(o *Options) { o.GBuf.Backend = backend })
	var read, release atomic.Bool
	var res JoinResult
	rt.Run(func(t0 *Thread) {
		if at == nil {
			at = func(t0 *Thread) mem.Addr { return t0.Alloc(16) }
		}
		x := at(t0)
		t0.StoreInt64(x, 5)
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork failed")
		}
		h.SetRegvarAddr(0, x)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			v := c.LoadInt64(p)
			read.Store(true)
			for !release.Load() {
				runtime.Gosched()
			}
			c.StoreInt64(p+8, 2*v)
			return 0
		})
		for !read.Load() {
			runtime.Gosched()
		}
		if interfere != nil {
			interfere(t0, x)
		}
		release.Store(true)
		waitReady(rt, ranks[0])
		if after != nil {
			after(t0, x)
		}
		res = t0.Join(ranks, 0)
		if res.Committed() != (t0.LoadInt64(x+8) == 2*5) {
			t.Errorf("join %v, but y = %d", res.Status, t0.LoadInt64(x+8))
		}
	})
	return res, rt.Stats().GBuf
}

// TestCleanCommitComparesNoWords: nobody writes x after the region began,
// so the join commits with one successful validation that compares no word
// against the arena.
func TestCleanCommitComparesNoWords(t *testing.T) {
	for _, be := range gbuf.Backends() {
		res, g := snapshotCase(t, be, nil, nil, nil)
		if res.Status != JoinCommitted {
			t.Fatalf("%s: clean speculation joined %v (%v)", be, res.Status, res.Reason)
		}
		if g.Validations != 1 || g.ValidationFail != 0 || g.WordsValidated != 0 {
			t.Fatalf("%s: validations %d/fail %d/words %d, want 1/0/0", be, g.Validations, g.ValidationFail, g.WordsValidated)
		}
	}
}

// TestWriteDuringRegionRollsBack: the parent overwrites x after the region
// loaded it and before the region stopped, once through each of its direct
// write paths. The write stamps x's page after the region-entry snapshot,
// so the join compares x and rolls back. The stack row places x at the
// parent's unallocated stack top and overwrites it by StackAlloc's zeroing.
// Mutation-checked: with the snapshot taken after runRegion instead, or
// with the stamp (Thread.wrote) dropped from store, storeRange or
// StackAlloc, the page looks clean and the stale read commits.
func TestWriteDuringRegionRollsBack(t *testing.T) {
	onStack := func(t0 *Thread) mem.Addr { return t0.stackTop }
	for _, w := range []struct {
		name  string
		at    func(t0 *Thread) mem.Addr
		write func(t0 *Thread, x mem.Addr)
	}{
		{"word", nil, func(t0 *Thread, x mem.Addr) { t0.StoreInt64(x, 6) }},
		{"sub-word", nil, func(t0 *Thread, x mem.Addr) { t0.StoreUint8(x, 6) }},
		{"word-range", nil, func(t0 *Thread, x mem.Addr) { t0.StoreWords(x, []uint64{6}) }},
		{"unaligned-bytes", nil, func(t0 *Thread, x mem.Addr) { t0.StoreBytes(x+4, []byte{1, 2, 3, 4, 5, 6, 7, 8}) }},
		{"sub-word-range", nil, func(t0 *Thread, x mem.Addr) { t0.StoreInt32s(x, []int32{6, 0}) }},
		{"stack-zeroing", onStack, func(t0 *Thread, x mem.Addr) { t0.StackAlloc(16) }},
	} {
		for _, be := range gbuf.Backends() {
			res, g := snapshotCase(t, be, w.at, w.write, nil)
			if res.Status != JoinRolledBack || res.Reason != RollbackValidation {
				t.Fatalf("%s/%s: join %v (%v), want rolled-back/validation", w.name, be, res.Status, res.Reason)
			}
			if g.Validations != 1 || g.ValidationFail != 1 || g.WordsValidated == 0 {
				t.Fatalf("%s/%s: validations %d/fail %d/words %d, want 1/1/>0", w.name, be, g.Validations, g.ValidationFail, g.WordsValidated)
			}
		}
	}
}

// TestWriteAfterStopRollsBack: the parent overwrites x strictly after the
// region stopped, while it waits for its join.
func TestWriteAfterStopRollsBack(t *testing.T) {
	for _, be := range gbuf.Backends() {
		res, g := snapshotCase(t, be, nil, nil, func(t0 *Thread, x mem.Addr) { t0.StoreInt64(x, 6) })
		if res.Status != JoinRolledBack || res.Reason != RollbackValidation {
			t.Fatalf("%s: join %v (%v), want rolled-back/validation", be, res.Status, res.Reason)
		}
		if g.Validations != 1 || g.ValidationFail != 1 || g.WordsValidated == 0 {
			t.Fatalf("%s: validations %d/fail %d/words %d, want 1/1/>0", be, g.Validations, g.ValidationFail, g.WordsValidated)
		}
	}
}

// TestConcurrentJoinersStress runs many fork/join rounds with the parent
// storing to a hot word the regions read, so region-entry snapshots, stamp
// marks and commits race on the dirty table from several goroutines at
// once. Run under -race this is the memory-model check of the snapshot rule;
// the expectation tracking checks that exactly the committed speculations'
// writes land.
func TestConcurrentJoinersStress(t *testing.T) {
	const cpus = 4
	const rounds = 50
	withProcs(t, cpus+1) // real timing forks only onto a free proc
	rt := newRT(t, cpus, func(o *Options) { o.Timing = vclock.Real })
	var got, want [cpus]int64
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(8 * (cpus + 1))
		hot := arr + 8*cpus
		ranks := make([]Rank, cpus)
		for round := 0; round < rounds; round++ {
			forked := 0
			for i := 0; i < cpus; i++ {
				h := t0.Fork(ranks, i, Mixed)
				if h == nil {
					continue
				}
				forked++
				h.SetRegvarAddr(0, arr+mem.Addr(8*i))
				h.SetRegvarAddr(1, hot)
				h.Start(func(c *Thread) uint32 {
					p := c.GetRegvarAddr(0)
					// Read the hot word the parent keeps overwriting: the
					// speculation is only allowed to commit if the value it
					// saw survives until its serial section.
					_ = c.LoadInt64(c.GetRegvarAddr(1))
					c.StoreInt64(p, c.LoadInt64(p)+1)
					return 0
				})
				// Interfere while speculations are in flight.
				t0.StoreInt64(hot, int64(round*cpus+i))
			}
			for i := 0; i < cpus; i++ {
				if ranks[i] == 0 {
					continue
				}
				if res := t0.Join(ranks, i); res.Committed() {
					want[i]++
				}
			}
			if forked == 0 {
				t.Fatal("no fork succeeded in a quiescent round")
			}
		}
		for i := 0; i < cpus; i++ {
			got[i] = t0.LoadInt64(arr + mem.Addr(8*i))
		}
	})
	if got != want {
		t.Fatalf("committed increments %v, joins reported %v", got, want)
	}
}
