// Package lbuf implements the MUTLS LocalBuffer (paper §IV-G3): the
// per-thread structure that transfers local (register and stack) variables
// between parent and child threads at fork and join, organized as an array
// of stack frames, each holding a RegisterBuffer and a StackBuffer.
//
// The speculator pass assigns every live local variable a small integer
// offset ("slot"); MUTLS_(set|get)_regvar_* moves register values through a
// static array indexed by that slot, and MUTLS_(set|get)_stackvar_* does the
// same for addressable stack variables, additionally recording their
// addresses so that stack pointers crossing the commit boundary can be
// remapped from the speculative stack to the non-speculative one (the
// paper's pointer mapping mechanism).
package lbuf

import (
	"fmt"

	"repro/internal/mem"
)

// DefaultRegSlots is the default RegisterBuffer capacity per frame. The
// paper uses a static array and reports an error when the speculator pass
// assigns an offset beyond it.
const DefaultRegSlots = 64

// DefaultStackSlots is the default StackBuffer capacity per frame.
const DefaultStackSlots = 32

// stackVar is one buffered stack variable: its home address in the writer's
// address space, the reader's copy address (bound later), and the data.
type stackVar struct {
	live      bool
	homeAddr  mem.Addr // address in the thread that stored it (non-spec side)
	boundAddr mem.Addr // address in the thread that loaded it (spec side)
	data      []byte
}

// Frame is one LocalBuffer stack frame: a RegisterBuffer and a StackBuffer,
// plus the bookkeeping needed for stack frame reconstruction (paper §IV-H):
// which function the frame belongs to and the synchronization counter of the
// call site that created it.
type Frame struct {
	FuncID   uint32
	CallSite uint32
	regs     []uint64
	regLive  []bool
	vars     []stackVar
	// liveRegs/liveVars list the slots that went live, in first-store
	// order: clearing a frame and copying its registers out touch only
	// these, not the whole static arrays.
	liveRegs []int32
	liveVars []int32
}

func newFrame(regSlots, stackSlots int) *Frame {
	return &Frame{
		regs:    make([]uint64, regSlots),
		regLive: make([]bool, regSlots),
		vars:    make([]stackVar, stackSlots),
	}
}

// clear empties the frame in place. Stack-variable byte buffers keep their
// capacity for the next SetStackvar.
func (f *Frame) clear() {
	for _, s := range f.liveRegs {
		f.regLive[s] = false
		f.regs[s] = 0
	}
	f.liveRegs = f.liveRegs[:0]
	for _, s := range f.liveVars {
		v := &f.vars[s]
		v.live = false
		v.homeAddr, v.boundAddr = mem.NilAddr, mem.NilAddr
		v.data = v.data[:0]
	}
	f.liveVars = f.liveVars[:0]
}

// Buffer is one thread's LocalBuffer: a stack of frames. Frame 0 is the
// speculative entry frame; EnterPoint/ReturnPoint push and pop nested
// frames as the speculative thread descends into function calls. Popped
// frames wait on a free list, so a buffer allocates a frame only the first
// time a nesting depth is reached.
type Buffer struct {
	regSlots   int
	stackSlots int
	frames     []*Frame
	free       []*Frame
}

// Config sizes a LocalBuffer.
type Config struct {
	RegSlots   int // register slots per frame
	StackSlots int // stack-variable slots per frame
}

// DefaultConfig returns the benchmark configuration.
func DefaultConfig() Config {
	return Config{RegSlots: DefaultRegSlots, StackSlots: DefaultStackSlots}
}

// New creates a LocalBuffer with a single (entry) frame.
func New(cfg Config) (*Buffer, error) {
	if cfg.RegSlots < 1 || cfg.StackSlots < 1 {
		return nil, fmt.Errorf("lbuf: invalid config %+v", cfg)
	}
	b := &Buffer{regSlots: cfg.RegSlots, stackSlots: cfg.StackSlots}
	b.frames = append(b.frames, newFrame(cfg.RegSlots, cfg.StackSlots))
	return b, nil
}

// Reset discards every nested frame and empties the entry frame in place:
// only the slots that went live are cleared, nothing is allocated.
func (b *Buffer) Reset() {
	for len(b.frames) > 1 {
		b.popFrame()
	}
	b.frames[0].clear()
}

// popFrame moves the innermost frame to the free list.
func (b *Buffer) popFrame() {
	n := len(b.frames) - 1
	b.free = append(b.free, b.frames[n])
	b.frames[n] = nil
	b.frames = b.frames[:n]
}

// Depth returns the number of frames (1 = entry frame only).
func (b *Buffer) Depth() int { return len(b.frames) }

// Top returns the current (innermost) frame.
func (b *Buffer) Top() *Frame { return b.frames[len(b.frames)-1] }

// PushFrame registers a new stack frame for a nested function call — the
// paper's MUTLS_enter_point. funcID identifies the callee; callSite is the
// synchronization counter of the enter point block in the caller, which the
// non-speculative thread later uses to replicate the call chain.
func (b *Buffer) PushFrame(funcID, callSite uint32) *Frame {
	var f *Frame
	if n := len(b.free); n > 0 {
		f = b.free[n-1]
		b.free = b.free[:n-1]
		f.clear()
	} else {
		f = newFrame(b.regSlots, b.stackSlots)
	}
	f.FuncID, f.CallSite = funcID, callSite
	b.frames = append(b.frames, f)
	return f
}

// PopFrame removes the innermost frame — the paper's MUTLS_return_point. It
// fails on the entry frame: speculative threads are restricted from
// returning from their entry function (§IV-H) and must treat such a return
// as a stop point instead.
func (b *Buffer) PopFrame() error {
	if len(b.frames) == 1 {
		return fmt.Errorf("lbuf: return from speculative entry frame")
	}
	b.popFrame()
	return nil
}

// SetRegvar stores a register value in the given slot of the top frame
// (MUTLS_set_regvar_*). It fails when the slot exceeds the static array, as
// the paper's speculator pass does.
func (b *Buffer) SetRegvar(slot int, v uint64) error {
	f := b.Top()
	if slot < 0 || slot >= len(f.regs) {
		return fmt.Errorf("lbuf: register slot %d exceeds capacity %d", slot, len(f.regs))
	}
	f.regs[slot] = v
	if !f.regLive[slot] {
		f.regLive[slot] = true
		f.liveRegs = append(f.liveRegs, int32(slot))
	}
	return nil
}

// GetRegvar fetches a register value from the top frame
// (MUTLS_get_regvar_*). Reading a slot that was never stored is a protocol
// error: the variable was live at the join point but not saved at the fork
// point.
func (b *Buffer) GetRegvar(slot int) (uint64, error) {
	f := b.Top()
	if slot < 0 || slot >= len(f.regs) {
		return 0, fmt.Errorf("lbuf: register slot %d exceeds capacity %d", slot, len(f.regs))
	}
	if !f.regLive[slot] {
		return 0, fmt.Errorf("lbuf: register slot %d read before set", slot)
	}
	return f.regs[slot], nil
}

// SetStackvar copies a stack variable into the top frame
// (MUTLS_set_stackvar_*): slot is the assigned offset, homeAddr the
// variable's address in the caller's space, and data its current bytes.
func (b *Buffer) SetStackvar(slot int, homeAddr mem.Addr, data []byte) error {
	f := b.Top()
	if slot < 0 || slot >= len(f.vars) {
		return fmt.Errorf("lbuf: stack slot %d exceeds capacity %d", slot, len(f.vars))
	}
	v := &f.vars[slot]
	if !v.live {
		v.live = true
		f.liveVars = append(f.liveVars, int32(slot))
	}
	v.homeAddr = homeAddr
	v.boundAddr = mem.NilAddr
	v.data = append(v.data[:0], data...)
	return nil
}

// GetStackvar returns the buffered bytes of a stack variable from the top
// frame and binds boundAddr as the reader's own copy of the variable; the
// (boundAddr → homeAddr) pair feeds the pointer mapping. Passing
// mem.NilAddr skips binding.
func (b *Buffer) GetStackvar(slot int, boundAddr mem.Addr) ([]byte, error) {
	f := b.Top()
	if slot < 0 || slot >= len(f.vars) {
		return nil, fmt.Errorf("lbuf: stack slot %d exceeds capacity %d", slot, len(f.vars))
	}
	v := &f.vars[slot]
	if !v.live {
		return nil, fmt.Errorf("lbuf: stack slot %d read before set", slot)
	}
	if boundAddr != mem.NilAddr {
		v.boundAddr = boundAddr
	}
	return v.data, nil
}

// UpdateStackvar refreshes the buffered bytes of a live stack variable; the
// speculative thread calls it when stopping so the parent commits the final
// values.
func (b *Buffer) UpdateStackvar(slot int, data []byte) error {
	f := b.Top()
	if slot < 0 || slot >= len(f.vars) || !f.vars[slot].live {
		return fmt.Errorf("lbuf: update of dead stack slot %d", slot)
	}
	v := &f.vars[slot]
	if len(data) != len(v.data) {
		return fmt.Errorf("lbuf: stack slot %d size changed from %d to %d", slot, len(v.data), len(data))
	}
	copy(v.data, data)
	return nil
}

// PtrMapping describes one buffered stack variable of the entry frame for
// the pointer mapping mechanism: its non-speculative home address, the
// speculative bound address (NilAddr if the child never materialized it)
// and its size.
type PtrMapping struct {
	Slot  int
	Home  mem.Addr
	Bound mem.Addr
	Size  int
}

// PtrMappings snapshots the entry frame's live stack variables in slot
// order; nil (and no allocation) when the frame buffers none.
func (b *Buffer) PtrMappings() []PtrMapping {
	f := b.frames[0]
	if len(f.liveVars) == 0 {
		return nil
	}
	out := make([]PtrMapping, 0, len(f.liveVars))
	for i := range f.vars {
		v := &f.vars[i]
		if v.live {
			out = append(out, PtrMapping{Slot: i, Home: v.homeAddr, Bound: v.boundAddr, Size: len(v.data)})
		}
	}
	return out
}

// MapPtr implements the pointer mapping mechanism: if ptr points inside the
// speculative (bound) copy of one of the stack variables ms, it is
// translated to the corresponding address in the non-speculative (home)
// copy. The bool result reports whether a mapping applied. Since the two
// functions may lay their stacks out differently, the offset is computed
// per variable, never as a constant.
func MapPtr(ms []PtrMapping, ptr mem.Addr) (mem.Addr, bool) {
	for _, m := range ms {
		if m.Bound != mem.NilAddr && ptr >= m.Bound && ptr < m.Bound+mem.Addr(m.Size) {
			return m.Home + (ptr - m.Bound), true
		}
	}
	return ptr, false
}

// EntryStackvarData returns the buffered bytes of an entry-frame stack
// variable regardless of the current frame depth (the joining thread
// commits entry-frame variables even when the child stopped in a nested
// call).
func (b *Buffer) EntryStackvarData(slot int) ([]byte, error) {
	f := b.frames[0]
	if slot < 0 || slot >= len(f.vars) || !f.vars[slot].live {
		return nil, fmt.Errorf("lbuf: entry stack slot %d not live", slot)
	}
	return f.vars[slot].data, nil
}

// FrameRecord is the parent-visible snapshot of one speculative frame, used
// for stack frame reconstruction after a successful join.
type FrameRecord struct {
	FuncID   uint32
	CallSite uint32
	Regs     []uint64
	RegLive  []bool
}

// Records snapshots every frame beyond the entry frame, outermost first.
// The parent replays them to replicate the speculative call chain
// (MUTLS_synchronize_entry).
func (b *Buffer) Records() []FrameRecord {
	if len(b.frames) == 1 {
		return nil
	}
	out := make([]FrameRecord, 0, len(b.frames)-1)
	for _, f := range b.frames[1:] {
		r := FrameRecord{
			FuncID:   f.FuncID,
			CallSite: f.CallSite,
			Regs:     append([]uint64(nil), f.regs...),
			RegLive:  append([]bool(nil), f.regLive...),
		}
		out = append(out, r)
	}
	return out
}

// EntryLive lists the entry frame's live register slots in first-store
// order. The slice aliases the buffer: it is valid until the next Reset
// and must not be modified. Together with EntryReg it lets the joining
// thread copy only the registers the region actually saved.
func (b *Buffer) EntryLive() []int32 { return b.frames[0].liveRegs }

// EntryReg returns the value of an entry-frame register slot listed by
// EntryLive.
func (b *Buffer) EntryReg(slot int32) uint64 { return b.frames[0].regs[slot] }
