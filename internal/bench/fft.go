package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// FFT is the paper's recursive Fast Fourier Transform (Table II: 2^20
// doubles, divide and conquer). The input is bit-reverse permuted up front;
// the recursion then transforms contiguous halves — the speculative thread
// executes the second recursive call and is barriered after it (the paper's
// words), so it never touches data its parent is producing and no rollbacks
// occur. The butterfly combine of each internal node needs both halves and
// therefore runs on the non-speculative thread after the subtree's joins,
// which is exactly why the paper's fft speedup saturates around 3.7 with
// idle time dominating the speculative path (Figure 9).
var FFT = &Workload{
	Name:        "fft",
	Description: "recursive Fast Fourier Transform",
	Pattern:     "divide and conquer",
	Language:    "C",
	Class:       "memory",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("2^%d doubles", log2(s.N))
	},
	DefaultModel: mutls.Mixed,
	CISize:       Size{N: 1 << 13},
	PaperSize:    Size{N: 1 << 20},
	HeapBytes: func(s Size) int {
		return 8*2*s.N + (1 << 12)
	},
	Seq:  fftSeq,
	Spec: fftSpec,
}

const fftMinBlock = 16

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

type fftCtx struct {
	re, im mem.Addr
	n      int
	scr    fftScratch
}

// fftScratch is the transform's working storage by rank: a rank runs one
// thread at a time, and every thread works in its own rank's buffer. The
// prologue, the driver's combines and the checksum share rank 0's.
type fftScratch [][]float64

// of returns n floats of c's rank's buffer, which is made at the rank's
// first use and made again when a caller needs more.
func (s fftScratch) of(c *mutls.Thread, n int) []float64 {
	buf := &s[c.Rank()]
	if len(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// fftInit fills both arrays in Go and writes each with one bulk store.
func fftInit(t *mutls.Thread, s Size) fftCtx {
	n := s.N
	ctx := fftCtx{re: t.Alloc(8 * n), im: t.Alloc(8 * n), n: n,
		scr: make(fftScratch, t.Runtime().NumCPUs()+1)}
	buf := ctx.scr.of(t, 2*n)
	re, im := buf[:n], buf[n:]
	for i := range re {
		re[i], im[i] = math.Sin(0.3*float64(i))+0.1*float64(i%17), math.Cos(0.7*float64(i))
	}
	t.StoreFloat64s(ctx.re, re)
	t.StoreFloat64s(ctx.im, im)
	return ctx
}

func (ctx fftCtx) free(t *mutls.Thread) {
	t.Free(ctx.re)
	t.Free(ctx.im)
}

// fftBitReverse permutes the input so the contiguous-halves recursion
// computes a decimation-in-time FFT: one bulk load and one bulk store per
// array around the swaps in Go.
func fftBitReverse(t *mutls.Thread, ctx fftCtx) {
	n := ctx.n
	buf := ctx.scr.of(t, 2*n)
	re, im := buf[:n], buf[n:]
	t.LoadFloat64s(ctx.re, re)
	t.LoadFloat64s(ctx.im, im)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	t.Tick(int64(n))
	t.StoreFloat64s(ctx.re, re)
	t.StoreFloat64s(ctx.im, im)
}

// fftCombine merges two transformed halves of [start, start+length) with
// twiddle-factor butterflies. Both halves are moved with bulk range
// accesses — four loads and four stores for the whole combine instead of
// eight scalar accesses per butterfly — with unchanged per-word modelled
// charges and bit-identical floating point per element, in c's rank's
// scratch.
func fftCombine(c *mutls.Thread, ctx fftCtx, start, length int) {
	half := length / 2
	buf := ctx.scr.of(c, 2*length)
	ar := buf[:half]
	ai := buf[half : 2*half]
	br := buf[2*half : 3*half]
	bi := buf[3*half : 4*half]
	c.LoadFloat64s(ctx.re+mem.Addr(8*start), ar)
	c.LoadFloat64s(ctx.im+mem.Addr(8*start), ai)
	c.LoadFloat64s(ctx.re+mem.Addr(8*(start+half)), br)
	c.LoadFloat64s(ctx.im+mem.Addr(8*(start+half)), bi)
	for j := 0; j < half; j++ {
		ang := -2 * math.Pi * float64(j) / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		tr := wr*br[j] - wi*bi[j]
		ti := wr*bi[j] + wi*br[j]
		br[j], bi[j] = ar[j]-tr, ai[j]-ti
		ar[j], ai[j] = ar[j]+tr, ai[j]+ti
	}
	c.Tick(int64(40 * half))
	c.StoreFloat64s(ctx.re+mem.Addr(8*start), ar)
	c.StoreFloat64s(ctx.im+mem.Addr(8*start), ai)
	c.StoreFloat64s(ctx.re+mem.Addr(8*(start+half)), br)
	c.StoreFloat64s(ctx.im+mem.Addr(8*(start+half)), bi)
}

// fftBlock runs the full iterative transform of [lo, lo+m) (input already
// bit-reversed), polling a check point per combine. The poll rolls a
// squashed speculation back at a butterfly boundary instead of letting it
// drain the block (a parked or join-signalled thread still completes the
// block: tree regions have no mid-body resume protocol).
func fftBlock(c *mutls.Thread, ctx fftCtx, lo, m int) {
	for length := 2; length <= m; length <<= 1 {
		for start := lo; start < lo+m; start += length {
			fftCombine(c, ctx, start, length)
			c.CheckPoint()
		}
	}
}

// fftMaxDepth bounds the fork tree at 64 leaf regions; below that the
// recursion runs inside the region (get_CPU failures already degrade
// gracefully at low CPU counts).
func fftMaxDepth(n int) int {
	d := 0
	for (n>>(d+1)) >= fftMinBlock && d < 6 {
		d++
	}
	return d
}

func fftSeq(t *mutls.Thread, s Size) uint64 {
	ctx := fftInit(t, s)
	defer ctx.free(t)
	fftBitReverse(t, ctx)
	fftBlock(t, ctx, 0, ctx.n)
	return fftChecksum(t, ctx)
}

func fftSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	ctx := fftInit(t, s)
	defer ctx.free(t)
	fftBitReverse(t, ctx)
	maxDepth := fftMaxDepth(ctx.n)

	// A task describes one internal node of the recursion: Args = lo, the
	// right-half start, the node's length m, and the node's depth. The
	// spawned region transforms the right half [lo+m/2, lo+m); the left
	// half runs on the spawning thread.
	tree := &mutls.Tree{Model: o.Model}
	var node func(c *mutls.Thread, tt *mutls.TreeThread, lo, m, depth int)
	node = func(c *mutls.Thread, tt *mutls.TreeThread, lo, m, depth int) {
		if depth >= maxDepth || m <= fftMinBlock {
			fftBlock(c, ctx, lo, m)
			return
		}
		half := m / 2
		task := mutls.Task{
			Seq:  int64(lo + half),
			Args: [4]int64{int64(lo), int64(lo + half), int64(m), int64(depth)},
		}
		spawned := tt.Spawn(c, task)
		nBefore := tt.Pending()
		node(c, tt, lo, half, depth+1)
		if spawned {
			// The combine needs the speculative half: deferred to the
			// non-speculative driver after the subtree's joins.
			return
		}
		// No CPU: transform the right half sequentially here. The left
		// half's own speculations may still be running — that is safe,
		// unlike in matmult's node, because the two halves touch disjoint
		// elements: nothing this block stores is in their read sets.
		fftBlock(c, ctx, lo+half, half)
		if tt.Pending() == nBefore {
			// Both halves are complete locally: combine now.
			fftCombine(c, ctx, lo, m)
			return
		}
		// The left half deferred combines: this node's combine must run
		// after them. A rank-0 entry marks a combine-only task.
		tt.Defer(c, task)
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		node(c, tt, int(task.Args[1]), int(task.Args[2])/2, int(task.Args[3])+1)
	}

	// The driver completes subtrees in sequential order, running each
	// node's combine once its right half has joined (reverse in-order
	// traversal = sequential order, §IV-F). fft interleaves driver-side
	// combines with the joins, so it completes the tree with Tree.Join
	// directly instead of Tree.Drive.
	var complete func(task mutls.Task)
	complete = func(task mutls.Task) {
		if task.Rank == 0 {
			return // combine-only entry: nothing to join
		}
		sub, _, committed := tree.Join(t, task)
		if committed {
			for _, ch := range sub {
				complete(ch)
				fftCombine(t, ctx, int(ch.Args[0]), int(ch.Args[2]))
			}
			return
		}
		// Rolled back: redo the right half sequentially.
		fftBlock(t, ctx, int(task.Args[1]), int(task.Args[2])/2)
	}

	roots := tree.Collect(t, func(tt *mutls.TreeThread) {
		node(t, tt, 0, ctx.n, 0)
	})
	for _, task := range roots {
		complete(task)
		fftCombine(t, ctx, int(task.Args[0]), int(task.Args[2]))
	}
	return fftChecksum(t, ctx)
}

func fftChecksum(t *mutls.Thread, ctx fftCtx) uint64 {
	sum := uint64(0)
	buf := ctx.scr.of(t, 2*ctx.n)
	re, im := buf[:ctx.n], buf[ctx.n:]
	t.LoadFloat64s(ctx.re, re)
	t.LoadFloat64s(ctx.im, im)
	for i := 0; i < ctx.n; i++ {
		sum = mix(sum, math.Float64bits(re[i]))
		sum = mix(sum, math.Float64bits(im[i]))
	}
	return sum
}
