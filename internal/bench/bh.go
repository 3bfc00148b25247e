package bench

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/mutls"
)

// BH is the paper's Barnes-Hut N-body simulation (Table II: 12800 bodies,
// C++). Each step rebuilds the octree on the non-speculative thread (tree
// construction allocates, which speculative threads may not do) and then
// computes per-body forces by tree traversal in speculated chunks — a
// pointer-chasing, memory-intensive loop, which is why bh sits in Figure 4
// rather than Figure 3.
var BH = &Workload{
	Name:        "bh",
	Description: "Barnes-Hut N-body simulation",
	Pattern:     "loop",
	Language:    "C++",
	Class:       "memory",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d bodies", s.N)
	},
	DefaultModel: mutls.InOrder,
	CISize:       Size{N: 96, Steps: 2},
	PaperSize:    Size{N: 12_800, Steps: 4},
	HeapBytes: func(s Size) int {
		// Bodies (10 words each) + up to ~8N tree nodes of 13 words.
		return 8*(10*s.N) + 8*13*8*s.N + (1 << 16)
	},
	Seq:  bhSeq,
	Spec: bhSpec,
}

// Octree node layout (13 words): mass, cx, cy, cz, body index (-1 when
// internal), 8 child pointers.
const (
	bhMass  = 0
	bhCX    = 8
	bhCY    = 16
	bhCZ    = 24
	bhBody  = 32
	bhChild = 40 // 8 pointers
	bhNode  = 104
)

// bhState: the tree root pointer and root half-size live in simulated
// memory (meta), not in Go variables — a squashed speculative thread may
// still be traversing the previous step's tree while the non-speculative
// thread rebuilds it, and such stale reads must flow through the TLS
// buffers (where validation handles them) rather than race at the Go level.
type bhState struct {
	pos, vel, force mem.Addr // 3N float64 each
	mass            mem.Addr // N float64
	meta            mem.Addr // [root pointer, root half-size]
	n               int
	nodes           []mem.Addr
}

func bhInit(t *mutls.Thread, s Size) *bhState {
	n := s.N
	st := &bhState{
		pos:   t.Alloc(8 * 3 * n),
		vel:   t.Alloc(8 * 3 * n),
		force: t.Alloc(8 * 3 * n),
		mass:  t.Alloc(8 * n),
		meta:  t.Alloc(16),
		n:     n,
	}
	buf := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		// Deterministic pseudo-random cloud in [0,1)³.
		h := uint64(i)*0x9E3779B97F4A7C15 + 12345
		for d := 0; d < 3; d++ {
			h ^= h >> 29
			h *= 0xBF58476D1CE4E5B9
			buf[3*i+d] = float64(h%1000) / 1000.0
		}
	}
	t.StoreFloat64s(st.pos, buf)
	clear(buf)
	t.StoreFloat64s(st.vel, buf)
	mass := buf[:n]
	for i := range mass {
		mass[i] = 1.0 + float64(i%7)/7.0
	}
	t.StoreFloat64s(st.mass, mass)
	return st
}

func (st *bhState) freeAll(t *mutls.Thread) {
	st.freeTree(t)
	t.Free(st.pos)
	t.Free(st.vel)
	t.Free(st.force)
	t.Free(st.mass)
	t.Free(st.meta)
}

func (st *bhState) freeTree(t *mutls.Thread) {
	for _, p := range st.nodes {
		t.Free(p)
	}
	st.nodes = st.nodes[:0]
	t.StoreAddr(st.meta, mem.NilAddr)
}

func (st *bhState) newNode(t *mutls.Thread, cx, cy, cz float64) mem.Addr {
	p := t.Alloc(bhNode)
	st.nodes = append(st.nodes, p)
	t.StoreFloat64(p+bhMass, 0)
	t.StoreFloat64(p+bhCX, cx)
	t.StoreFloat64(p+bhCY, cy)
	t.StoreFloat64(p+bhCZ, cz)
	t.StoreInt64(p+bhBody, -1)
	for c := 0; c < 8; c++ {
		t.StoreAddr(p+bhChild+mem.Addr(8*c), mem.NilAddr)
	}
	return p
}

// buildTree (non-speculative): bounding cube, then insert every body.
func (st *bhState) buildTree(t *mutls.Thread) {
	st.freeTree(t)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 3*st.n; i++ {
		v := t.LoadFloat64(st.pos + mem.Addr(8*i))
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	mid := (lo + hi) / 2
	half := (hi-lo)/2 + 1e-9
	root := st.newNode(t, mid, mid, mid)
	for i := 0; i < st.n; i++ {
		st.insert(t, root, half, i)
	}
	st.summarize(t, root)
	t.StoreAddr(st.meta, root)
	t.StoreFloat64(st.meta+8, half)
}

func (st *bhState) bodyPos(t *mutls.Thread, i int) (float64, float64, float64) {
	return t.LoadFloat64(st.pos + mem.Addr(8*(3*i))),
		t.LoadFloat64(st.pos + mem.Addr(8*(3*i+1))),
		t.LoadFloat64(st.pos + mem.Addr(8*(3*i+2)))
}

func (st *bhState) octant(t *mutls.Thread, node mem.Addr, x, y, z float64) int {
	o := 0
	if x >= t.LoadFloat64(node+bhCX) {
		o |= 1
	}
	if y >= t.LoadFloat64(node+bhCY) {
		o |= 2
	}
	if z >= t.LoadFloat64(node+bhCZ) {
		o |= 4
	}
	return o
}

func (st *bhState) childCenter(t *mutls.Thread, node mem.Addr, half float64, o int) (float64, float64, float64) {
	dx, dy, dz := -half/2, -half/2, -half/2
	if o&1 != 0 {
		dx = half / 2
	}
	if o&2 != 0 {
		dy = half / 2
	}
	if o&4 != 0 {
		dz = half / 2
	}
	return t.LoadFloat64(node+bhCX) + dx, t.LoadFloat64(node+bhCY) + dy, t.LoadFloat64(node+bhCZ) + dz
}

func (st *bhState) insert(t *mutls.Thread, node mem.Addr, half float64, i int) {
	x, y, z := st.bodyPos(t, i)
	for {
		if b := t.LoadInt64(node + bhBody); b >= 0 {
			// Leaf with a body: push the resident body down, then retry.
			t.StoreInt64(node+bhBody, -1)
			st.pushDown(t, node, half, int(b))
		}
		o := st.octant(t, node, x, y, z)
		childPtr := node + bhChild + mem.Addr(8*o)
		child := t.LoadAddr(childPtr)
		if child == mem.NilAddr {
			cx, cy, cz := st.childCenter(t, node, half, o)
			child = st.newNode(t, cx, cy, cz)
			t.StoreInt64(child+bhBody, int64(i))
			t.StoreAddr(childPtr, child)
			return
		}
		node = child
		half /= 2
	}
}

func (st *bhState) pushDown(t *mutls.Thread, node mem.Addr, half float64, b int) {
	x, y, z := st.bodyPos(t, b)
	o := st.octant(t, node, x, y, z)
	childPtr := node + bhChild + mem.Addr(8*o)
	if t.LoadAddr(childPtr) == mem.NilAddr {
		cx, cy, cz := st.childCenter(t, node, half, o)
		child := st.newNode(t, cx, cy, cz)
		t.StoreInt64(child+bhBody, int64(b))
		t.StoreAddr(childPtr, child)
		return
	}
	// Extremely close bodies: insert recursively.
	st.insert(t, t.LoadAddr(childPtr), half/2, b)
}

// summarize computes mass and center of mass bottom-up.
func (st *bhState) summarize(t *mutls.Thread, node mem.Addr) (float64, float64, float64, float64) {
	if b := t.LoadInt64(node + bhBody); b >= 0 {
		m := t.LoadFloat64(st.mass + mem.Addr(8*b))
		x, y, z := st.bodyPos(t, int(b))
		t.StoreFloat64(node+bhMass, m)
		t.StoreFloat64(node+bhCX, x)
		t.StoreFloat64(node+bhCY, y)
		t.StoreFloat64(node+bhCZ, z)
		return m, x, y, z
	}
	var m, mx, my, mz float64
	for c := 0; c < 8; c++ {
		child := t.LoadAddr(node + bhChild + mem.Addr(8*c))
		if child == mem.NilAddr {
			continue
		}
		cm, cx, cy, cz := st.summarize(t, child)
		m += cm
		mx += cm * cx
		my += cm * cy
		mz += cm * cz
	}
	if m > 0 {
		mx /= m
		my /= m
		mz /= m
	}
	t.StoreFloat64(node+bhMass, m)
	t.StoreFloat64(node+bhCX, mx)
	t.StoreFloat64(node+bhCY, my)
	t.StoreFloat64(node+bhCZ, mz)
	return m, mx, my, mz
}

// bhForce computes the force on body i by tree traversal with opening
// criterion half/dist < theta. The visit budget bounds traversals over a
// torn tree snapshot (a squashed thread racing a rebuild): exceeding it
// means the snapshot is garbage and the thread rolls back.
func (st *bhState) bhForce(c *mutls.Thread, i int) (float64, float64, float64) {
	const theta = 0.5
	const eps = 1e-4
	budget := 64 * (st.n + 8)
	x, y, z := st.bodyPos(c, i)
	var fx, fy, fz float64
	type frame struct {
		node mem.Addr
		half float64
	}
	stack := []frame{{c.LoadAddr(st.meta), c.LoadFloat64(st.meta + 8)}}
	if stack[0].node == mem.NilAddr {
		c.Rollback()
	}
	for len(stack) > 0 {
		budget--
		if budget < 0 {
			c.Rollback()
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := c.LoadInt64(f.node + bhBody)
		if b == int64(i) {
			continue
		}
		m := c.LoadFloat64(f.node + bhMass)
		if m == 0 {
			continue
		}
		dx := c.LoadFloat64(f.node+bhCX) - x
		dy := c.LoadFloat64(f.node+bhCY) - y
		dz := c.LoadFloat64(f.node+bhCZ) - z
		r2 := dx*dx + dy*dy + dz*dz + eps
		r := math.Sqrt(r2)
		if b >= 0 || f.half/r < theta {
			inv := m / (r2 * r)
			fx += dx * inv
			fy += dy * inv
			fz += dz * inv
			c.Tick(26)
			continue
		}
		for o := 0; o < 8; o++ {
			child := c.LoadAddr(f.node + bhChild + mem.Addr(8*o))
			if child != mem.NilAddr {
				stack = append(stack, frame{child, f.half / 2})
			}
		}
		c.Tick(18)
	}
	return fx, fy, fz
}

func (st *bhState) forces(c *mutls.Thread, lo, hi int) {
	f := make([]float64, 3)
	for i := lo; i < hi; i++ {
		f[0], f[1], f[2] = st.bhForce(c, i)
		c.StoreFloat64s(st.force+mem.Addr(8*3*i), f)
		// Polling happens in the loop driver (ForOptions.PollEvery polls
		// at body bounds and can stop the chunk with saved progress).
	}
}

func (st *bhState) integrate(c *mutls.Thread, lo, hi int) {
	const dt = 1e-4
	for i := lo; i < hi; i++ {
		for d := 0; d < 3; d++ {
			off := mem.Addr(8 * (3*i + d))
			v := c.LoadFloat64(st.vel+off) + dt*c.LoadFloat64(st.force+off)
			c.StoreFloat64(st.vel+off, v)
			c.StoreFloat64(st.pos+off, c.LoadFloat64(st.pos+off)+dt*v)
		}
		c.Tick(12)
	}
}

// bhPolicy: at least 8 bodies per chunk, at most the paper's 64 chunks.
var bhPolicy = mutls.ChunkPolicy{MaxChunks: 64, MinPerChunk: 8}

func bhChecksum(t *mutls.Thread, st *bhState) uint64 {
	sum := uint64(0)
	pos := make([]float64, 3*st.n)
	t.LoadFloat64s(st.pos, pos)
	for _, v := range pos {
		sum = mix(sum, math.Float64bits(v))
	}
	return sum
}

func bhSeq(t *mutls.Thread, s Size) uint64 {
	st := bhInit(t, s)
	defer st.freeAll(t)
	for step := 0; step < s.Steps; step++ {
		st.buildTree(t)
		st.forces(t, 0, st.n)
		st.integrate(t, 0, st.n)
	}
	return bhChecksum(t, st)
}

func bhSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	st := bhInit(t, s)
	defer st.freeAll(t)
	// PollEvery stops parked/squashed chunks at body bounds.
	opts := mutls.ForOptions{Model: o.Model, Policy: bhPolicy, PollEvery: 1}
	for step := 0; step < s.Steps; step++ {
		st.buildTree(t) // allocation-heavy: non-speculative by rule
		mutls.ForRange(t, st.n, opts, func(c *mutls.Thread, lo, hi int) {
			st.forces(c, lo, hi)
		})
		st.integrate(t, 0, st.n) // O(N): not worth a fork
	}
	return bhChecksum(t, st)
}
