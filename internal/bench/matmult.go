package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// MatMult is the paper's block-based matrix multiplication (Table II:
// 1024×1024 matrices, divide and conquer "like Strassen's algorithm").
// Each node splits C = A·B into eight half-size sub-products — two
// accumulating products per C quadrant — forks seven and computes the
// eighth itself. The two sub-products of one quadrant read and write the
// same C block, so when sub-tasks split their own sub-tasks the speculative
// siblings conflict: matmult is the paper's only benchmark that exhibits
// real rollbacks (§V-B, peaking around 23% at 7 cores).
var MatMult = &Workload{
	Name:        "matmult",
	Description: "block-based matrix multiplication",
	Pattern:     "divide and conquer",
	Language:    "C",
	Class:       "memory",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%dx%d matrices", s.N, s.N)
	},
	DefaultModel: mutls.Mixed,
	CISize:       Size{N: 32},
	PaperSize:    Size{N: 1024},
	HeapBytes: func(s Size) int {
		return 8*3*s.N*s.N + (1 << 12)
	},
	Seq:  matmultSeq,
	Spec: matmultSpec,
}

const matmultBlock = 8

type mmCtx struct {
	a, b, c mem.Addr
	n       int
}

func mmInit(t *mutls.Thread, s Size) mmCtx {
	n := s.N
	ctx := mmCtx{a: t.Alloc(8 * n * n), b: t.Alloc(8 * n * n), c: t.Alloc(8 * n * n), n: n}
	a, b := make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64((i*13)%17)/17.0, float64((i*7)%23)/23.0
	}
	t.StoreFloat64s(ctx.a, a)
	t.StoreFloat64s(ctx.b, b)
	clear(a)
	t.StoreFloat64s(ctx.c, a)
	return ctx
}

func (ctx mmCtx) free(t *mutls.Thread) {
	t.Free(ctx.a)
	t.Free(ctx.b)
	t.Free(ctx.c)
}

// mmBase multiplies sz×sz blocks directly: C[cOff] += A[aOff] · B[bOff],
// with offsets in elements into the row-major n×n arrays. Rows are moved
// with bulk range accesses in the ikj order, which adds each a[k]*b[j]
// product to acc[j] in ascending k exactly like the scalar jk loop did,
// so the floating point result is bit-identical. Unlike the other bulk
// kernels, the modelled access count *drops* here (the A row is loaded
// once per i instead of once per (j,k): sz+2sz² accesses per row before,
// 2sz+sz² after) — sequential and speculative versions share the kernel,
// so the speedup ratios and checksums are unaffected, but absolute
// modelled runtimes shrink versus the scalar kernel. The per-row
// CheckPoint poll rolls squashed speculations back early (matmult is the
// suite's rollback benchmark).
func mmBase(c *mutls.Thread, ctx mmCtx, cOff, aOff, bOff, sz int) {
	n := ctx.n
	var rows [3][matmultBlock]float64 // one heap object: the views hand it to the buffer
	for i := 0; i < sz; i++ {
		a, b, acc := rows[0][:sz], rows[1][:sz], rows[2][:sz]
		c.LoadFloat64s(ctx.a+mem.Addr(8*(aOff+i*n)), a)
		c.LoadFloat64s(ctx.c+mem.Addr(8*(cOff+i*n)), acc)
		for k := 0; k < sz; k++ {
			c.LoadFloat64s(ctx.b+mem.Addr(8*(bOff+k*n)), b)
			av := a[k]
			for j := 0; j < sz; j++ {
				acc[j] += av * b[j]
			}
		}
		c.StoreFloat64s(ctx.c+mem.Addr(8*(cOff+i*n)), acc)
		c.Tick(int64(2 * sz * sz))
		c.CheckPoint()
	}
}

// mmSub lists the eight sub-products of a node in sequential order: for
// each C quadrant (ci, cj), first the k=0 product then the accumulating
// k=1 product.
type mmSub struct {
	cOff, aOff, bOff int
}

func mmSubs(ctx mmCtx, cOff, aOff, bOff, sz int) [8]mmSub {
	h := sz / 2
	n := ctx.n
	var out [8]mmSub
	idx := 0
	for ci := 0; ci < 2; ci++ {
		for cj := 0; cj < 2; cj++ {
			for k := 0; k < 2; k++ {
				out[idx] = mmSub{
					cOff: cOff + ci*h*n + cj*h,
					aOff: aOff + ci*h*n + k*h,
					bOff: bOff + k*h*n + cj*h,
				}
				idx++
			}
		}
	}
	return out
}

// mmSeqNode multiplies recursively without any speculation.
func mmSeqNode(t *mutls.Thread, ctx mmCtx, cOff, aOff, bOff, sz int) {
	if sz <= matmultBlock {
		mmBase(t, ctx, cOff, aOff, bOff, sz)
		return
	}
	for _, sub := range mmSubs(ctx, cOff, aOff, bOff, sz) {
		mmSeqNode(t, ctx, sub.cOff, sub.aOff, sub.bOff, sz/2)
	}
}

func matmultSeq(t *mutls.Thread, s Size) uint64 {
	ctx := mmInit(t, s)
	defer ctx.free(t)
	mmSeqNode(t, ctx, 0, 0, 0, ctx.n)
	return mmChecksum(t, ctx)
}

func matmultSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	ctx := mmInit(t, s)
	defer ctx.free(t)

	// Fork depth bounded at two levels (64 leaf tasks, the paper's scale);
	// failed spawns degrade to inline execution at low CPU counts. The
	// depth of a node follows from its block size: depth = log2(n/sz).
	maxDepth := 0
	for (ctx.n>>(maxDepth+1)) >= matmultBlock && maxDepth < 2 {
		maxDepth++
	}
	depthOf := func(sz int) int {
		d := 0
		for sz<<d < ctx.n {
			d++
		}
		return d
	}

	tree := &mutls.Tree{Model: o.Model}
	var node func(c *mutls.Thread, tt *mutls.TreeThread, cOff, aOff, bOff, sz int, seq, span int64)
	node = func(c *mutls.Thread, tt *mutls.TreeThread, cOff, aOff, bOff, sz int, seq, span int64) {
		if depthOf(sz) >= maxDepth || sz <= matmultBlock {
			mmSeqNode(c, ctx, cOff, aOff, bOff, sz)
			return
		}
		subs := mmSubs(ctx, cOff, aOff, bOff, sz)
		sub := span / 8
		// Spawn sub-products 7, 6, … in reverse sequential order (later
		// forked = logically earlier, §IV-F) up to the first refusal, and
		// compute the rest, 0..inline, ourselves. Everything this thread
		// runs inline must come before everything it has speculated, and
		// the two sub-products of a C quadrant accumulate into the same
		// block, so a refusal is final — a later Spawn may well be granted
		// (a CPU freed, a proc became idle), and sub-product i+1 run inline
		// would then precede the speculated i — and, when a sibling runs
		// inline after it, sub-product 0 must not leave children of its own
		// speculating behind: they would validate against the sibling's
		// stores, fail, and add their terms to C after it instead of before.
		inline := 7
		for inline >= 1 && tt.Spawn(c, mutls.Task{
			Seq: seq + int64(inline)*sub, Span: sub,
			Args: [4]int64{int64(subs[inline].cOff), int64(subs[inline].aOff), int64(subs[inline].bOff), int64(sz / 2)},
		}) {
			inline--
		}
		if inline == 0 {
			node(c, tt, subs[0].cOff, subs[0].aOff, subs[0].bOff, sz/2, seq, sub)
			return
		}
		for _, sp := range subs[:inline+1] {
			mmSeqNode(c, ctx, sp.cOff, sp.aOff, sp.bOff, sz/2)
		}
	}
	tree.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		node(c, tt, int(task.Args[0]), int(task.Args[1]), int(task.Args[2]), int(task.Args[3]),
			task.Seq, task.Span)
	}

	roots := tree.Collect(t, func(tt *mutls.TreeThread) {
		node(t, tt, 0, 0, 0, ctx.n, 0, int64(1)<<62)
	})
	tree.Drive(t, roots, nil)
	return mmChecksum(t, ctx)
}

func mmChecksum(t *mutls.Thread, ctx mmCtx) uint64 {
	sum := uint64(0)
	row := make([]float64, ctx.n)
	for i := 0; i < ctx.n; i++ {
		t.LoadFloat64s(ctx.c+mem.Addr(8*i*ctx.n), row)
		for _, v := range row {
			sum = mix(sum, math.Float64bits(v))
		}
	}
	return sum
}
