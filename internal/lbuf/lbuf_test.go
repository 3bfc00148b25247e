package lbuf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestBuffer(t *testing.T) *Buffer {
	t.Helper()
	b, err := New(Config{RegSlots: 8, StackSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{RegSlots: 0, StackSlots: 4}); err == nil {
		t.Error("zero reg slots accepted")
	}
	if _, err := New(Config{RegSlots: 4, StackSlots: 0}); err == nil {
		t.Error("zero stack slots accepted")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Error(err)
	}
}

// regvarLive reports whether the top frame holds a value in the slot.
func regvarLive(b *Buffer, slot int) bool {
	_, err := b.GetRegvar(slot)
	return err == nil
}

func TestRegvarRoundTrip(t *testing.T) {
	b := newTestBuffer(t)
	if err := b.SetRegvar(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := b.GetRegvar(3)
	if err != nil || v != 42 {
		t.Fatalf("GetRegvar = %d, %v", v, err)
	}
	if !regvarLive(b, 3) || regvarLive(b, 2) {
		t.Fatal("liveness wrong")
	}
}

func TestRegvarSlotOverflowFails(t *testing.T) {
	b := newTestBuffer(t)
	// The paper: "If there are too many variables and the assigned offset
	// exceeds the array size, the speculator pass reports an error and
	// speculation fails."
	if err := b.SetRegvar(8, 1); err == nil {
		t.Error("slot beyond capacity accepted")
	}
	if err := b.SetRegvar(-1, 1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := b.GetRegvar(99); err == nil {
		t.Error("read beyond capacity accepted")
	}
}

func TestRegvarReadBeforeSetFails(t *testing.T) {
	b := newTestBuffer(t)
	if _, err := b.GetRegvar(0); err == nil {
		t.Fatal("uninitialized regvar read succeeded")
	}
}

func TestStackvarRoundTrip(t *testing.T) {
	b := newTestBuffer(t)
	data := []byte{1, 2, 3, 4, 5}
	if err := b.SetStackvar(1, 1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetStackvar(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("data = %v", got)
	}
	// Mutating the source must not affect the buffered copy.
	data[0] = 99
	got, _ = b.GetStackvar(1, mem.NilAddr)
	if got[0] != 1 {
		t.Fatal("buffer aliases caller data")
	}
}

func TestStackvarErrors(t *testing.T) {
	b := newTestBuffer(t)
	if err := b.SetStackvar(4, 1000, []byte{1}); err == nil {
		t.Error("slot beyond capacity accepted")
	}
	if _, err := b.GetStackvar(0, 0); err == nil {
		t.Error("dead slot read succeeded")
	}
	if err := b.UpdateStackvar(0, []byte{1}); err == nil {
		t.Error("dead slot update succeeded")
	}
	b.SetStackvar(0, 1000, []byte{1, 2})
	if err := b.UpdateStackvar(0, []byte{1, 2, 3}); err == nil {
		t.Error("size-changing update accepted")
	}
	if err := b.UpdateStackvar(0, []byte{9, 8}); err != nil {
		t.Error(err)
	}
	got, _ := b.GetStackvar(0, mem.NilAddr)
	if got[0] != 9 || got[1] != 8 {
		t.Fatal("update not applied")
	}
}

func TestPointerMapping(t *testing.T) {
	b := newTestBuffer(t)
	// Parent var at 1000 (home), child copy bound at 5000.
	b.SetStackvar(0, 1000, make([]byte, 16))
	b.GetStackvar(0, 5000)
	// Pointer into the child copy maps to the parent copy at the same
	// per-variable offset.
	if p, ok := MapPtr(b.PtrMappings(), 5000); !ok || p != 1000 {
		t.Fatalf("MapPtr(5000) = %d, %v", p, ok)
	}
	if p, ok := MapPtr(b.PtrMappings(), 5007); !ok || p != 1007 {
		t.Fatalf("MapPtr(5007) = %d, %v", p, ok)
	}
	if p, ok := MapPtr(b.PtrMappings(), 5016); ok {
		t.Fatalf("one-past-end mapped to %d", p)
	}
	if p, ok := MapPtr(b.PtrMappings(), 4999); ok {
		t.Fatalf("before-start mapped to %d", p)
	}
	// Unmapped pointers come back unchanged.
	if p, ok := MapPtr(b.PtrMappings(), 777); ok || p != 777 {
		t.Fatalf("unrelated pointer = %d, %v", p, ok)
	}
}

func TestPointerMappingPerVariableOffsets(t *testing.T) {
	// Different variables have different, non-constant offsets — the paper
	// notes the stack layouts differ so a single constant offset is wrong.
	b := newTestBuffer(t)
	b.SetStackvar(0, 1000, make([]byte, 8))
	b.GetStackvar(0, 5000)
	b.SetStackvar(1, 2000, make([]byte, 8))
	b.GetStackvar(1, 5008) // adjacent in child, far apart in parent
	if p, _ := MapPtr(b.PtrMappings(), 5004); p != 1004 {
		t.Fatalf("var0 interior = %d", p)
	}
	if p, _ := MapPtr(b.PtrMappings(), 5012); p != 2004 {
		t.Fatalf("var1 interior = %d", p)
	}
}

func TestUnboundStackvarDoesNotMap(t *testing.T) {
	b := newTestBuffer(t)
	b.SetStackvar(0, 1000, make([]byte, 8))
	// Never loaded by the child, so no bound address: nothing to map.
	if _, ok := MapPtr(b.PtrMappings(), 1000); ok {
		t.Fatal("unbound variable mapped")
	}
}

func TestFramePushPop(t *testing.T) {
	b := newTestBuffer(t)
	if b.Depth() != 1 {
		t.Fatalf("initial depth %d", b.Depth())
	}
	b.SetRegvar(0, 11)
	f := b.PushFrame(7, 3)
	if b.Depth() != 2 || b.Top() != f {
		t.Fatal("push wrong")
	}
	// Frames isolate register slots.
	if _, err := b.GetRegvar(0); err == nil {
		t.Fatal("inner frame sees outer regvar")
	}
	b.SetRegvar(0, 22)
	if err := b.PopFrame(); err != nil {
		t.Fatal(err)
	}
	v, err := b.GetRegvar(0)
	if err != nil || v != 11 {
		t.Fatalf("outer regvar after pop = %d, %v", v, err)
	}
}

func TestPopEntryFrameFails(t *testing.T) {
	b := newTestBuffer(t)
	// Speculative threads may not return from their entry function.
	if err := b.PopFrame(); err == nil {
		t.Fatal("entry frame popped")
	}
}

func TestRecordsSnapshotNestedFrames(t *testing.T) {
	b := newTestBuffer(t)
	b.SetRegvar(0, 1)
	b.PushFrame(10, 2)
	b.SetRegvar(0, 100)
	b.PushFrame(20, 5)
	b.SetRegvar(1, 200)
	recs := b.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].FuncID != 10 || recs[0].CallSite != 2 || recs[0].Regs[0] != 100 || !recs[0].RegLive[0] {
		t.Fatalf("outer record %+v", recs[0])
	}
	if recs[1].FuncID != 20 || recs[1].CallSite != 5 || recs[1].Regs[1] != 200 {
		t.Fatalf("inner record %+v", recs[1])
	}
	// Entry frame is reported separately.
	live := b.EntryLive()
	if len(live) != 1 || live[0] != 0 || b.EntryReg(0) != 1 {
		t.Fatal("entry regs wrong")
	}
}

func TestResetRestoresEntryFrame(t *testing.T) {
	b := newTestBuffer(t)
	b.SetRegvar(0, 5)
	b.PushFrame(1, 1)
	b.PushFrame(2, 2)
	b.Reset()
	if b.Depth() != 1 {
		t.Fatalf("depth after reset %d", b.Depth())
	}
	if regvarLive(b, 0) {
		t.Fatal("regvar survived reset")
	}
	if len(b.Records()) != 0 {
		t.Fatal("records survived reset")
	}
}

// Property: regvar slots behave like an independent map per frame under
// random set/get/push/pop.
func TestQuickRegvarFrameIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, _ := New(Config{RegSlots: 16, StackSlots: 4})
		type frameModel map[int]uint64
		models := []frameModel{{}}
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1: // set
				slot, v := rng.Intn(16), rng.Uint64()
				if b.SetRegvar(slot, v) != nil {
					return false
				}
				models[len(models)-1][slot] = v
			case 2: // get
				slot := rng.Intn(16)
				want, ok := models[len(models)-1][slot]
				got, err := b.GetRegvar(slot)
				if ok != (err == nil) {
					return false
				}
				if ok && got != want {
					return false
				}
			case 3: // push
				if len(models) < 8 {
					b.PushFrame(uint32(op), uint32(op))
					models = append(models, frameModel{})
				}
			case 4: // pop
				if len(models) > 1 {
					if b.PopFrame() != nil {
						return false
					}
					models = models[:len(models)-1]
				} else if b.PopFrame() == nil {
					return false // entry pop must fail
				}
			}
			if b.Depth() != len(models) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MapPtr returns home+delta exactly for pointers inside a bound
// variable and identity otherwise.
func TestQuickPointerMapping(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, _ := New(Config{RegSlots: 4, StackSlots: 8})
		type varModel struct {
			home, bound mem.Addr
			size        int
		}
		var vars []varModel
		base := mem.Addr(1000)
		for i := 0; i < 5; i++ {
			size := 4 + rng.Intn(28)
			home := base
			base += mem.Addr(size + rng.Intn(64))
			bound := mem.Addr(100000) + mem.Addr(i*256)
			b.SetStackvar(i, home, make([]byte, size))
			b.GetStackvar(i, bound)
			vars = append(vars, varModel{home, bound, size})
		}
		for probe := 0; probe < 100; probe++ {
			p := mem.Addr(99000 + rng.Intn(4000))
			want, wantOK := p, false
			for _, v := range vars {
				if p >= v.bound && p < v.bound+mem.Addr(v.size) {
					want, wantOK = v.home+(p-v.bound), true
					break
				}
			}
			got, ok := MapPtr(b.PtrMappings(), p)
			if ok != wantOK || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResetClearsOnlyWhatWentLive: the entry frame is emptied in place —
// same frame object, every live register and stack variable gone, nested
// frames parked on the free list for the next PushFrame.
func TestResetClearsOnlyWhatWentLive(t *testing.T) {
	b := newTestBuffer(t)
	entry := b.frames[0]
	b.SetRegvar(5, 50)
	b.SetRegvar(2, 20)
	b.SetRegvar(5, 51) // a second store to a live slot lists it once
	if err := b.SetStackvar(1, 0x100, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if live := b.EntryLive(); len(live) != 2 || live[0] != 5 || live[1] != 2 || b.EntryReg(5) != 51 {
		t.Fatalf("live slots %v", live)
	}
	nested := b.PushFrame(7, 3)
	nested.regs[0] = 99 // as a SetRegvar on the nested frame would
	b.Reset()
	if b.frames[0] != entry {
		t.Fatal("Reset replaced the entry frame instead of clearing it")
	}
	if b.Depth() != 1 || len(b.EntryLive()) != 0 || regvarLive(b, 5) || regvarLive(b, 2) {
		t.Fatal("entry frame not empty after Reset")
	}
	if len(b.PtrMappings()) != 0 {
		t.Fatal("stack variable survived Reset")
	}
	if _, err := b.GetStackvar(1, 0); err == nil {
		t.Fatal("dead stack slot readable after Reset")
	}
	if got := b.PushFrame(8, 4); got != nested {
		t.Fatal("PushFrame allocated although a popped frame was free")
	} else if got.FuncID != 8 || got.CallSite != 4 || regvarLive(b, 0) {
		t.Fatalf("recycled frame carries old state: %+v", got)
	}
}

// TestSteadyStateDoesNotAllocate: after the first use at a given depth,
// the per-speculation cycle — reset, save registers, nest, unwind — runs
// without allocating.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	b := newTestBuffer(t)
	cycle := func() {
		b.Reset()
		b.SetRegvar(0, 1)
		b.SetRegvar(3, 2)
		b.PushFrame(1, 1)
		b.SetRegvar(1, 3)
		b.PushFrame(2, 2)
		b.PopFrame()
		b.PopFrame()
		for _, s := range b.EntryLive() {
			_ = b.EntryReg(s)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("steady-state cycle allocates %v objects", a)
	}
}
