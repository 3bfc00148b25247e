package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// TSP is the paper's travelling salesperson benchmark (Table II: 12 cities,
// depth-first search). The branch-and-bound DFS is speculated like nqueen:
// the top rows of the search tree spawn one speculative task per unvisited
// next city. Each subtree prunes against its own locally discovered best
// tour (a shared global bound would make every subtree conflict), and the
// driver minimizes over the committed subtree results.
var TSP = &Workload{
	Name:        "tsp",
	Description: "travelling sales person (TSP) problem",
	Pattern:     "depth-first search",
	Language:    "C",
	Class:       "memory",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d cities", s.N)
	},
	DefaultModel: mutls.Mixed,
	CISize:       Size{N: 8},
	PaperSize:    Size{N: 12},
	HeapBytes:    func(s Size) int { return 8*s.N*s.N + (1 << 12) },
	Seq:          tspSeq,
	Spec:         tspSpec,
}

const tspForkDepth = 2

// tspDist builds the distance matrix in simulated memory (static data the
// speculative threads read).
func tspDist(t *mutls.Thread, n int) mem.Addr {
	d := t.Alloc(8 * n * n)
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		xi := float64((i*37)%19) / 19.0
		yi := float64((i*53)%23) / 23.0
		for j := 0; j < n; j++ {
			xj := float64((j*37)%19) / 19.0
			yj := float64((j*53)%23) / 23.0
			dx, dy := xi-xj, yi-yj
			dist[i*n+j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	t.StoreFloat64s(d, dist)
	return d
}

// tspSearch explores all tours extending the partial path (visited, last,
// length), pruning against best, and returns the minimum tour length.
func tspSearch(c *mutls.Thread, d mem.Addr, n int, visited uint32, last int, length, best float64) float64 {
	if visited == uint32(1<<n)-1 {
		total := length + c.LoadFloat64(d+mem.Addr(8*(last*n+0)))
		if total < best {
			return total
		}
		return best
	}
	c.Tick(int64(n))
	for next := 1; next < n; next++ {
		if visited&(1<<next) != 0 {
			continue
		}
		step := c.LoadFloat64(d + mem.Addr(8*(last*n+next)))
		if length+step >= best {
			continue // bound
		}
		best = tspSearch(c, d, n, visited|1<<next, next, length+step, best)
	}
	return best
}

func tspSeq(t *mutls.Thread, s Size) uint64 {
	d := tspDist(t, s.N)
	defer t.Free(d)
	best := tspSearch(t, d, s.N, 1, 0, 0, math.Inf(1))
	return uint64(int64(best * 1e9))
}

// tspTask packs a partial tour into a Task: Args = visited, last city, tour
// length (float bits).
func tspTask(visited uint32, last int, length float64, seq, span int64) mutls.Task {
	return mutls.Task{
		Seq: seq, Span: span,
		Args: [4]int64{int64(visited), int64(last), int64(math.Float64bits(length)), 0},
	}
}

func tspSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	n := s.N
	d := tspDist(t, n)
	defer t.Free(d)

	tree := &mutls.Tree{Model: o.Model}
	var explore func(c *mutls.Thread, tt *mutls.TreeThread, visited uint32, last int, length float64, seq, span int64) float64
	explore = func(c *mutls.Thread, tt *mutls.TreeThread, visited uint32, last int, length float64, seq, span int64) float64 {
		depth := 0
		for v := visited; v != 0; v >>= 1 {
			depth += int(v & 1)
		}
		if depth > tspForkDepth || visited == uint32(1<<n)-1 {
			return tspSearch(c, d, n, visited, last, length, math.Inf(1))
		}
		var cands []int
		for next := 1; next < n; next++ {
			if visited&(1<<next) == 0 {
				cands = append(cands, next)
			}
		}
		stride := span / int64(len(cands))
		spawned := make([]bool, len(cands))
		for i := len(cands) - 1; i >= 1; i-- {
			next := cands[i]
			step := c.LoadFloat64(d + mem.Addr(8*(last*n+next)))
			spawned[i] = tt.Spawn(c, tspTask(visited|1<<next, next, length+step,
				seq+int64(i)*stride, stride))
		}
		// Refused candidates run inline while earlier subtrees still
		// speculate: safe in any order, the subtrees only read the distance
		// matrix and min is exact.
		next := cands[0]
		step := c.LoadFloat64(d + mem.Addr(8*(last*n+next)))
		best := explore(c, tt, visited|1<<next, next, length+step, seq, stride)
		for i := 1; i < len(cands); i++ {
			if spawned[i] {
				continue
			}
			nc := cands[i]
			stepI := c.LoadFloat64(d + mem.Addr(8*(last*n+nc)))
			b := explore(c, tt, visited|1<<nc, nc, length+stepI, seq+int64(i)*stride, stride)
			best = math.Min(best, b)
		}
		return best
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		best := explore(c, tt, uint32(task.Args[0]), int(task.Args[1]),
			math.Float64frombits(uint64(task.Args[2])), task.Seq, task.Span)
		tt.SetResultFloat64(best)
	}

	best := math.Inf(1)
	roots := tree.Collect(t, func(tt *mutls.TreeThread) {
		best = explore(t, tt, 1, 0, 0, 0, int64(1)<<62)
	})
	tree.Drive(t, roots, func(_ mutls.Task, res mutls.TreeResult) {
		best = math.Min(best, res.Float64())
	})
	return uint64(int64(best * 1e9))
}
