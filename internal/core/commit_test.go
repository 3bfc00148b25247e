package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// A commit made while its thread is the runtime's only live speculative
// thread stores its words plainly and stamps nothing (commitStamps); one made
// beside a live sibling keeps the atomic, stamped path, because the sibling
// snapshotted the stamps when its region began. make race-repeat runs these
// under -race -count=2 -cpu 1,2,4 with the rest of the package.

// TestCommitPathsKeepEquivalence: random chained loops — each chunk forks
// the next — on one speculative CPU, where every commit takes the plain
// path, and on three, where a chunk commits while the chunk it forked is
// still live, leave the sequential image, on every backend in turn.
func TestCommitPathsKeepEquivalence(t *testing.T) {
	for _, cpus := range []int{1, 3} {
		for seed := int64(0); seed < 24; seed++ {
			p := genProgram(rand.New(rand.NewSource(seed)))
			want := runSequential(t, p)
			for _, model := range []Model{InOrder, Mixed} {
				got := runSpeculative(t, p, model, cpus, 0, uint64(seed))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d CPUs, %v, seed %d: word %d is %d, want %d", cpus, model, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCommitStampsOnlyBesideALiveSibling: a chained loop whose chunks store
// one word each and read nothing. Every Mark is then either a store of the
// non-speculative thread's (a chunk it ran inline) or a stamped commit: on
// one speculative CPU there are none of the latter, on three a chunk
// commits while the chunk it forked is live, and there are.
func TestCommitStampsOnlyBesideALiveSibling(t *testing.T) {
	const chunks = 12
	for _, cpus := range []int{1, 3} {
		rt := newRT(t, cpus, nil)
		var marks, inline uint64
		rt.Run(func(t0 *Thread) {
			arr := t0.Alloc(8 * chunks)
			var region RegionFunc
			body := func(c *Thread, idx int, ranks []Rank) {
				if idx+1 < chunks {
					if h := c.Fork(ranks, 0, InOrder); h != nil {
						h.SetRegvarInt64(0, int64(idx+1))
						h.Start(region)
					}
				}
				if !c.Speculative() {
					inline++
				}
				c.StoreInt64(arr+mem.Addr(8*idx), int64(idx*idx+1))
			}
			region = func(c *Thread) uint32 {
				ranks := []Rank{0}
				body(c, int(c.GetRegvarInt64(0)), ranks)
				c.SaveRegvarInt64(1, int64(ranks[0]))
				return 0
			}
			before := rt.stamps.Snapshot()
			ranks := []Rank{0}
			body(t0, 0, ranks)
			for idx := 1; idx < chunks; idx++ {
				if res := t0.Join(ranks, 0); res.Committed() {
					ranks[0] = Rank(res.RegvarInt64(1))
				} else {
					ranks[0] = 0
					body(t0, idx, ranks)
				}
			}
			marks = rt.stamps.Snapshot() - before
			for idx := 0; idx < chunks; idx++ {
				if got := t0.LoadInt64(arr + mem.Addr(8*idx)); got != int64(idx*idx+1) {
					t.Errorf("%d CPUs: chunk %d stored %d", cpus, idx, got)
				}
			}
		})
		commits, stamped := rt.Stats().Commits, marks-inline
		t.Logf("%d CPUs: %d commits, %d chunks inline, %d stamped commit runs", cpus, commits, inline, stamped)
		if commits == 0 || (cpus == 1) != (stamped == 0) {
			t.Fatalf("%d CPUs: %d commits, %d stamped runs: want commits, stamped only beside a live sibling", cpus, commits, stamped)
		}
	}
}

// TestSiblingReadBeforeACommitRollsBack: speculation A forks B and then
// writes the word B reads. B reads the old word and stops, and only then is
// A joined and committed. A commits beside a live sibling, so it stamps the
// page after B's region-entry snapshot, B's join compares the word and B
// rolls back; the non-speculative thread re-runs it on A's word.
// Mutation-checked: with commitStamps always nil (no sibling test) A's
// commit stamps nothing, B commits its stale read, and this fails.
func TestSiblingReadBeforeACommitRollsBack(t *testing.T) {
	rt := newRT(t, 2, nil)
	var read, release atomic.Bool
	rt.Run(func(t0 *Thread) {
		arr := t0.Alloc(16) // x, then y = 10x
		t0.StoreInt64(arr, 1)
		regionB := func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			x := c.LoadInt64(p)
			read.Store(true)
			for !release.Load() {
				runtime.Gosched()
			}
			c.StoreInt64(p+8, 10*x)
			return 0
		}
		ranks := make([]Rank, 2)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork A refused")
		}
		h.SetRegvarAddr(0, arr)
		h.Start(func(c *Thread) uint32 {
			p := c.GetRegvarAddr(0)
			inner := make([]Rank, 2)
			if hb := c.Fork(inner, 1, Mixed); hb != nil {
				hb.SetRegvarAddr(0, p)
				hb.Start(regionB)
			}
			c.StoreInt64(p, 2)
			c.SaveRegvarInt64(1, int64(inner[1]))
			return 0
		})
		waitReady(rt, ranks[0])
		b := 3 - ranks[0] // the other CPU
		gate := &rt.cpus[b].td.workGate
		if rt.cpus[b].td.state.Load() != cpuRunning {
			release.Store(true)
			t.Fatal("A did not fork B")
		}
		// Once B has read x it waits for the release; let go, it stops and
		// spins or parks for its join.
		for !read.Load() {
			runtime.Gosched()
		}
		spins := gate.spins.Load()
		release.Store(true)
		for gate.spins.Load() == spins && gate.parked.Load() == 0 {
			runtime.Gosched()
		}
		resA := t0.Join(ranks, 0)
		if !resA.Committed() {
			t.Fatalf("A did not commit: %v (%v)", resA.Status, resA.Reason)
		}
		ranks[1] = Rank(resA.RegvarInt64(1))
		if resB := t0.Join(ranks, 1); resB.Status != JoinRolledBack || resB.Reason != RollbackValidation {
			t.Fatalf("B, which read x before A's commit wrote it, joined %v (%v): want a validation rollback", resB.Status, resB.Reason)
		}
		t0.StoreInt64(arr+8, 10*t0.LoadInt64(arr))
		if y := t0.LoadInt64(arr + 8); y != 20 {
			t.Fatalf("y = %d, want 20", y)
		}
	})
}
