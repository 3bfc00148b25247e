package core

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// stopSignal unwinds a region at a barrier/terminate point; the counter
// tells the joining thread where to resume.
type stopSignal struct{ counter uint32 }

// rollbackSignal unwinds a region whose execution must be discarded.
type rollbackSignal struct{ reason RollbackReason }

// Thread is the execution context handed to non-speculative code (rank 0)
// and to speculative regions (rank ≥ 1). All memory traffic of the program
// under speculation flows through it: the non-speculative thread accesses
// the arena directly while speculative threads are buffered, faulted or
// stack-directed exactly as §IV-G prescribes.
type Thread struct {
	rt          *Runtime
	rank        Rank
	cpu         *cpu // nil for the non-speculative thread
	clock       *vclock.Clock
	speculative bool

	// children is the paper's per-thread children stack: direct children in
	// fork order with their fork-time epochs (§IV-F). Speculative threads
	// keep it in cpu.td.children so the parent can adopt it after the stop.
	children []childRef

	stack    mem.Range
	stackTop mem.Addr

	// openFork tracks the window between Fork (CPU claimed, bookkeeping
	// published) and Start (task handed to the worker). A panic unwinding
	// through that window would otherwise strand a claimed CPU — active
	// incremented, no worker ever running — and hang the drain; the
	// recover paths call abandonOpenFork to undo the claim. fork is the
	// handle itself: a thread has one fork window open at a time, so each
	// Fork re-initializes it instead of allocating one.
	openFork *ForkHandle
	fork     ForkHandle
}

// Rank returns the thread's virtual CPU rank (0 = non-speculative).
func (t *Thread) Rank() Rank { return t.rank }

// Speculative reports whether this is a speculative thread.
func (t *Thread) Speculative() bool { return t.speculative }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Tick charges n cost units of pure computation to the virtual clock (a
// no-op under real timing, where computation takes real time).
func (t *Thread) Tick(n int64) { t.clock.Charge(vclock.Work, n) }

// Now returns the thread's current (virtual or real) time.
func (t *Thread) Now() vclock.Cost { return t.clock.Now() }

// rollbackNow abandons the current region.
func (t *Thread) rollbackNow(reason RollbackReason) {
	if !t.speculative {
		panic(fmt.Sprintf("core: non-speculative thread hit %v", reason))
	}
	panic(rollbackSignal{reason: reason})
}

// inOwnStack reports whether [p,p+n) lies in this thread's stack region.
func (t *Thread) inOwnStack(p mem.Addr, n int) bool {
	return p >= t.stack.Start && p+mem.Addr(n) <= t.stack.End
}

// direct is the one access rule of §IV-G, shared by every accessor. It
// charges nWords modelled accesses, checks [p,p+n) and reports whether the
// access goes straight to the arena. The non-speculative thread always
// does, and an invalid address panics. A speculative thread does for its
// own stack (the stack acts as its own buffer), rolls back outside the
// global space, and otherwise goes through its GlobalBuffer.
func (t *Thread) direct(p mem.Addr, n, nWords int) bool {
	cost := t.clock.Model.DirectAccess
	if t.speculative {
		cost = t.clock.Model.BufferedAccess
	}
	t.clock.Charge(vclock.Work, cost*vclock.Cost(nWords))
	if t.speculative && t.inOwnStack(p, n) {
		return true
	}
	if !t.rt.space.InGlobal(p, n) {
		if !t.speculative {
			panic(fmt.Sprintf("core: non-speculative access to invalid address %d (+%d)", p, n))
		}
		t.rollbackNow(RollbackInvalidAddress)
	}
	return !t.speculative
}

// wrote stamps the pages of a direct write. The non-speculative thread's
// writes land in global address space whose words other threads' read sets
// may have snapshotted; a speculative thread writes directly only to its
// private stack, which needs no stamp.
func (t *Thread) wrote(p mem.Addr, n int) {
	if !t.speculative && t.rt.markFn != nil {
		t.rt.markFn(p, n)
	}
}

// load is the read path of MUTLS_load_*.
func (t *Thread) load(p mem.Addr, size int) uint64 {
	if t.direct(p, size, 1) {
		return directLoad(t.rt.space.Arena, p, size)
	}
	v, st := t.cpu.gb.Load(p, size)
	t.handleBufferStatus(st)
	return v
}

// store is the write path of MUTLS_store_*.
func (t *Thread) store(p mem.Addr, size int, v uint64) {
	if t.direct(p, size, 1) {
		directStore(t.rt.space.Arena, p, size, v)
		t.wrote(p, size)
		return
	}
	t.injectAt(faultinject.SiteStore)
	t.handleBufferStatus(t.cpu.gb.Store(p, size, v))
}

func (t *Thread) handleBufferStatus(st gbuf.Status) {
	switch st {
	case gbuf.OK, gbuf.Conflict: // Conflict: parked in overflow; stop at next check point.
	case gbuf.Full:
		t.rollbackNow(RollbackOverflow)
	case gbuf.Misaligned:
		t.rollbackNow(RollbackUnsafeOp)
	}
}

func directLoad(a *mem.Arena, p mem.Addr, size int) uint64 {
	switch size {
	case 1:
		return uint64(a.ReadUint8(p))
	case 2:
		return uint64(a.ReadUint16(p))
	case 4:
		return uint64(a.ReadUint32(p))
	case 8:
		return a.ReadWord(p)
	}
	panic(fmt.Sprintf("core: direct load of size %d", size))
}

func directStore(a *mem.Arena, p mem.Addr, size int, v uint64) {
	switch size {
	case 1:
		a.WriteUint8(p, uint8(v))
	case 2:
		a.WriteUint16(p, uint16(v))
	case 4:
		a.WriteUint32(p, uint32(v))
	case 8:
		a.WriteWord(p, v)
	}
}

// LoadUint8 reads one byte at p.
func (t *Thread) LoadUint8(p mem.Addr) uint8 { return uint8(t.load(p, 1)) }

// StoreUint8 writes one byte at p.
func (t *Thread) StoreUint8(p mem.Addr, v uint8) { t.store(p, 1, uint64(v)) }

// LoadUint16 reads two bytes at p (p must be 2-aligned).
func (t *Thread) LoadUint16(p mem.Addr) uint16 { return uint16(t.load(p, 2)) }

// StoreUint16 writes two bytes at p.
func (t *Thread) StoreUint16(p mem.Addr, v uint16) { t.store(p, 2, uint64(v)) }

// LoadInt32 reads a 4-byte signed value at p.
func (t *Thread) LoadInt32(p mem.Addr) int32 { return int32(uint32(t.load(p, 4))) }

// StoreInt32 writes a 4-byte signed value at p.
func (t *Thread) StoreInt32(p mem.Addr, v int32) { t.store(p, 4, uint64(uint32(v))) }

// LoadInt64 reads an 8-byte signed value at p.
func (t *Thread) LoadInt64(p mem.Addr) int64 { return int64(t.load(p, 8)) }

// StoreInt64 writes an 8-byte signed value at p.
func (t *Thread) StoreInt64(p mem.Addr, v int64) { t.store(p, 8, uint64(v)) }

// LoadFloat64 reads a float64 at p.
func (t *Thread) LoadFloat64(p mem.Addr) float64 { return math.Float64frombits(t.load(p, 8)) }

// StoreFloat64 writes a float64 at p.
func (t *Thread) StoreFloat64(p mem.Addr, v float64) { t.store(p, 8, math.Float64bits(v)) }

// LoadFloat32 reads a float32 at p.
func (t *Thread) LoadFloat32(p mem.Addr) float32 {
	return math.Float32frombits(uint32(t.load(p, 4)))
}

// StoreFloat32 writes a float32 at p.
func (t *Thread) StoreFloat32(p mem.Addr, v float32) { t.store(p, 4, uint64(math.Float32bits(v))) }

// LoadAddr reads a pointer-sized value at p.
func (t *Thread) LoadAddr(p mem.Addr) mem.Addr { return mem.Addr(t.load(p, 8)) }

// StoreAddr writes a pointer-sized value at p.
func (t *Thread) StoreAddr(p mem.Addr, v mem.Addr) { t.store(p, 8, uint64(v)) }

// loadRange is the bulk read path for whole-word runs: one address check
// and at most one Backend crossing for the run, and one vclock charge that
// still counts one access *per word*, so the modelled cost equals the
// word-at-a-time decomposition (bulk removes software overhead, not
// modelled accesses). p must be word-aligned and len(dst) a whole number of
// words; callers (LoadBytes, the typed slice accessors) guarantee that.
func (t *Thread) loadRange(p mem.Addr, dst []byte) {
	if len(dst) == 0 {
		return
	}
	if t.direct(p, len(dst), len(dst)/mem.Word) {
		t.rt.space.Arena.ReadWords(p, dst)
		return
	}
	t.handleBufferStatus(t.cpu.gb.LoadRange(p, dst))
}

// storeRange is the bulk write path for whole-word runs; see loadRange.
func (t *Thread) storeRange(p mem.Addr, src []byte) {
	if len(src) == 0 {
		return
	}
	if t.direct(p, len(src), len(src)/mem.Word) {
		t.rt.space.Arena.WriteWords(p, src)
		t.wrote(p, len(src))
		return
	}
	t.injectAt(faultinject.SiteStore)
	t.handleBufferStatus(t.cpu.gb.StoreRange(p, src))
}

// subAccessSize returns the largest supported access size (1, 2 or 4) that
// is aligned at p and fits in the remaining n bytes — the paper's
// size>WORD splitting rule applied to a misaligned head or tail: the span
// decomposes into maximal aligned accesses, each charged once, instead of
// degenerating to per-byte accesses (and per-byte charges).
func subAccessSize(p mem.Addr, n int) int {
	for _, s := range [2]int{4, 2} {
		if s <= n && mem.Aligned(p, s) {
			return s
		}
	}
	return 1
}

// LoadBytes copies len(dst) bytes starting at p into dst, decomposed per
// the paper's size>WORD splitting rule: maximal aligned sub-word accesses
// for the misaligned head and tail, and one bulk word-run (a single
// Backend range crossing with one batched clock charge) for the aligned
// middle.
func (t *Thread) LoadBytes(p mem.Addr, dst []byte) {
	i := 0
	n := len(dst)
	loadSub := func() {
		s := subAccessSize(p+mem.Addr(i), n-i)
		v := t.load(p+mem.Addr(i), s)
		for b := 0; b < s; b++ {
			dst[i+b] = byte(v >> (8 * b))
		}
		i += s
	}
	for i < n && !mem.Aligned(p+mem.Addr(i), mem.Word) {
		loadSub()
	}
	if words := (n - i) / mem.Word; words > 0 {
		t.loadRange(p+mem.Addr(i), dst[i:i+words*mem.Word])
		i += words * mem.Word
	}
	for i < n {
		loadSub()
	}
}

// StoreBytes writes src to p with the same decomposition as LoadBytes.
func (t *Thread) StoreBytes(p mem.Addr, src []byte) {
	i := 0
	n := len(src)
	storeSub := func() {
		s := subAccessSize(p+mem.Addr(i), n-i)
		var v uint64
		for b := s - 1; b >= 0; b-- {
			v = v<<8 | uint64(src[i+b])
		}
		t.store(p+mem.Addr(i), s, v)
		i += s
	}
	for i < n && !mem.Aligned(p+mem.Addr(i), mem.Word) {
		storeSub()
	}
	if words := (n - i) / mem.Word; words > 0 {
		t.storeRange(p+mem.Addr(i), src[i:i+words*mem.Word])
		i += words * mem.Word
	}
	for i < n {
		storeSub()
	}
}

// elem is the element types of the typed slice views.
type elem interface {
	uint64 | int64 | float64 | int32 | float32
}

// elemBytes checks a typed bulk access of s at p and returns s's own
// memory as bytes. p must be aligned to the element size: misalignment is
// an unsafe operation, so speculative threads roll back and the
// non-speculative thread panics. On a little-endian host, the only kind
// internal/mem builds for (mem/bigendian.go), the bytes are exactly the
// little-endian image the arena and the GlobalBuffer move, so the caller's
// slice is the range itself: no copy, no conversion. A rolled-back load
// leaves it unspecified.
func elemBytes[E elem](t *Thread, p mem.Addr, s []E) []byte {
	var zero E
	size := int(unsafe.Sizeof(zero))
	if !mem.Aligned(p, size) {
		if t.speculative {
			t.rollbackNow(RollbackUnsafeOp)
		}
		panic(fmt.Sprintf("core: misaligned %d-byte-run access at %d", size, p))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*size)
}

// LoadWords reads len(dst) consecutive words starting at the word-aligned
// address p — one buffered range access with a single batched clock
// charge. Misalignment is an unsafe operation: speculative threads roll
// back, the non-speculative thread panics. A typed view's slice escapes to
// the heap through the Backend interface call, so a buffer made for one
// access is one allocation: kernels make theirs outside per-iteration code.
func (t *Thread) LoadWords(p mem.Addr, dst []uint64) { t.LoadBytes(p, elemBytes(t, p, dst)) }

// StoreWords writes len(src) consecutive words at the word-aligned
// address p.
func (t *Thread) StoreWords(p mem.Addr, src []uint64) { t.StoreBytes(p, elemBytes(t, p, src)) }

// LoadInt64s reads len(dst) consecutive int64s starting at p (a slice view
// over simulated memory; see LoadWords).
func (t *Thread) LoadInt64s(p mem.Addr, dst []int64) { t.LoadBytes(p, elemBytes(t, p, dst)) }

// StoreInt64s writes len(src) consecutive int64s at p.
func (t *Thread) StoreInt64s(p mem.Addr, src []int64) { t.StoreBytes(p, elemBytes(t, p, src)) }

// LoadFloat64s reads len(dst) consecutive float64s starting at p (a slice
// view over simulated memory; see LoadWords).
func (t *Thread) LoadFloat64s(p mem.Addr, dst []float64) { t.LoadBytes(p, elemBytes(t, p, dst)) }

// StoreFloat64s writes len(src) consecutive float64s at p.
func (t *Thread) StoreFloat64s(p mem.Addr, src []float64) { t.StoreBytes(p, elemBytes(t, p, src)) }

// LoadFloat32s reads len(dst) consecutive float32s starting at the
// 4-aligned address p: at most one 4-byte head access, one bulk word-run
// (a single batched clock charge, one Backend range crossing) for the
// aligned middle, and at most one 4-byte tail access — the sub-word slice
// view on the single-charge range contract. dst escapes (see LoadWords).
func (t *Thread) LoadFloat32s(p mem.Addr, dst []float32) { t.LoadBytes(p, elemBytes(t, p, dst)) }

// StoreFloat32s writes len(src) consecutive float32s at the 4-aligned
// address p (see LoadFloat32s for the decomposition).
func (t *Thread) StoreFloat32s(p mem.Addr, src []float32) { t.StoreBytes(p, elemBytes(t, p, src)) }

// LoadInt32s reads len(dst) consecutive int32s starting at the 4-aligned
// address p (the int32 slice view; see LoadFloat32s).
func (t *Thread) LoadInt32s(p mem.Addr, dst []int32) { t.LoadBytes(p, elemBytes(t, p, dst)) }

// StoreInt32s writes len(src) consecutive int32s at the 4-aligned address
// p.
func (t *Thread) StoreInt32s(p mem.Addr, src []int32) { t.StoreBytes(p, elemBytes(t, p, src)) }

// Alloc allocates n bytes on the heap. Speculative threads may not allocate
// (the paper intercepts malloc and forbids it because the thread may roll
// back); a speculative call is an unsafe operation and rolls back — regions
// that need memory must stop at a terminate point first.
func (t *Thread) Alloc(n int) mem.Addr {
	if t.speculative {
		t.rollbackNow(RollbackUnsafeOp)
	}
	t.injectAt(faultinject.SiteAlloc)
	p, err := t.rt.space.Heap.Alloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Free releases a heap allocation; speculative calls roll back.
func (t *Thread) Free(p mem.Addr) {
	if t.speculative {
		t.rollbackNow(RollbackUnsafeOp)
	}
	if err := t.rt.space.Heap.Free(p); err != nil {
		panic(err)
	}
}

// StackAlloc reserves n bytes (word-rounded) on this thread's stack region
// and returns their address. Speculative stacks are private: other threads
// fault on them, while the non-speculative stack is global address space.
func (t *Thread) StackAlloc(n int) mem.Addr {
	need := mem.Addr((n + mem.Word - 1) &^ (mem.Word - 1))
	if t.stackTop+need > t.stack.End {
		if t.speculative {
			t.rollbackNow(RollbackUnsafeOp)
		}
		panic(fmt.Sprintf("core: stack overflow on rank %d", t.rank))
	}
	p := t.stackTop
	t.stackTop += need
	t.rt.space.Arena.Zero(p, int(need))
	t.wrote(p, int(need))
	return p
}
