package bench

import (
	"fmt"
	"math/bits"

	"repro/mutls"
)

// NQueen is the paper's N-queen benchmark (Table II: 14 queens, depth-first
// search). The search tree is speculated in the tree-form mixed model: at
// the top forkDepth rows each node explores its first candidate column
// itself and spawns a speculative task per remaining candidate (in reverse
// sequential order), exactly the tree-form recursion the simple forking
// models cannot exploit. Subtrees are disjoint (solution counts travel in
// the task results), so the benchmark is embarrassingly parallel and
// rollback-free, like the paper observes.
var NQueen = &Workload{
	Name:        "nqueen",
	Description: "N-queen problem",
	Pattern:     "depth-first search",
	Language:    "C",
	Class:       "memory",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d queens", s.N)
	},
	DefaultModel: mutls.Mixed,
	CISize:       Size{N: 10},
	PaperSize:    Size{N: 14},
	HeapBytes:    func(Size) int { return 1 << 12 },
	Seq:          nqueenSeq,
	Spec:         nqueenSpec,
}

const nqueenForkDepth = 2

// nqueenCount explores the subtree below (cols, d1, d2) at the given row
// sequentially, charging one tick per visited node.
func nqueenCount(c *mutls.Thread, n int, row int, cols, d1, d2 uint32) int64 {
	if row == n {
		return 1
	}
	full := uint32(1<<n) - 1
	avail := full &^ (cols | d1 | d2)
	count := int64(0)
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		count += nqueenCount(c, n, row+1, cols|bit, (d1|bit)<<1&full, (d2|bit)>>1)
	}
	c.Tick(int64(4 + bits.OnesCount32(full&^(cols|d1|d2))))
	return count
}

func nqueenSeq(t *mutls.Thread, s Size) uint64 {
	return uint64(nqueenCount(t, s.N, 0, 0, 0, 0))
}

// nqueenTask packs a search node into a Task: Args = row, cols, d1, d2.
func nqueenTask(row int, cols, d1, d2 uint32, seq, span int64) mutls.Task {
	return mutls.Task{
		Seq: seq, Span: span,
		Args: [4]int64{int64(row), int64(cols), int64(d1), int64(d2)},
	}
}

func nqueenSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	n := s.N
	full := uint32(1<<n) - 1

	tree := &mutls.Tree{Model: o.Model}
	// explore handles one node at row < nqueenForkDepth: first candidate
	// explored by this thread, the rest spawned (logically later first).
	var explore func(c *mutls.Thread, tt *mutls.TreeThread, row int, cols, d1, d2 uint32, seq, span int64) int64
	explore = func(c *mutls.Thread, tt *mutls.TreeThread, row int, cols, d1, d2 uint32, seq, span int64) int64 {
		if row >= nqueenForkDepth || row == n {
			return nqueenCount(c, n, row, cols, d1, d2)
		}
		avail := full &^ (cols | d1 | d2)
		if avail == 0 {
			return 0
		}
		var cands []uint32
		for a := avail; a != 0; {
			bit := a & (-a)
			a &^= bit
			cands = append(cands, bit)
		}
		stride := span / int64(len(cands))
		spawned := make([]bool, len(cands))
		for i := len(cands) - 1; i >= 1; i-- {
			bit := cands[i]
			spawned[i] = tt.Spawn(c, nqueenTask(row+1, cols|bit, (d1|bit)<<1&full, (d2|bit)>>1,
				seq+int64(i)*stride, stride))
		}
		// Refused candidates run inline while earlier subtrees still
		// speculate: safe in any order, the subtrees store nothing and
		// their counts add up exactly.
		bit := cands[0]
		count := explore(c, tt, row+1, cols|bit, (d1|bit)<<1&full, (d2|bit)>>1, seq, stride)
		for i := 1; i < len(cands); i++ {
			if spawned[i] {
				continue
			}
			b := cands[i]
			count += explore(c, tt, row+1, cols|b, (d1|b)<<1&full, (d2|b)>>1, seq+int64(i)*stride, stride)
		}
		return count
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		count := explore(c, tt, int(task.Args[0]), uint32(task.Args[1]), uint32(task.Args[2]),
			uint32(task.Args[3]), task.Seq, task.Span)
		tt.SetResultInt64(count)
	}

	total := int64(0)
	roots := tree.Collect(t, func(tt *mutls.TreeThread) {
		total = explore(t, tt, 0, 0, 0, 0, 0, int64(1)<<62)
	})
	tree.Drive(t, roots, func(_ mutls.Task, res mutls.TreeResult) {
		total += res.Int64()
	})
	return uint64(total)
}
