package gbuf

import (
	"testing"

	"repro/internal/mem"
)

func newTestBuffer(t *testing.T, logWords, ovCap int) (*Buffer, *mem.Arena) {
	t.Helper()
	arena, err := mem.NewArena(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(arena, Config{LogWords: logWords, OverflowCap: ovCap})
	if err != nil {
		t.Fatal(err)
	}
	return b, arena
}

func TestNewRejectsBadConfig(t *testing.T) {
	arena, _ := mem.NewArena(1 << 10)
	if _, err := New(arena, Config{LogWords: 0, OverflowCap: 4}); err == nil {
		t.Error("LogWords 0 accepted")
	}
	if _, err := New(arena, Config{LogWords: 40, OverflowCap: 4}); err == nil {
		t.Error("huge LogWords accepted")
	}
	if _, err := New(arena, Config{LogWords: 4, OverflowCap: -2}); err == nil {
		t.Error("negative overflow accepted")
	}
	if _, err := New(arena, Config{LogWords: 4, OverflowCap: NoOverflow}); err != nil {
		t.Errorf("NoOverflow rejected: %v", err)
	}
}

func TestLoadReadsArenaOnFirstTouch(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 0x1122334455667788)
	v, st := b.Load(64, 8)
	if st != OK || v != 0x1122334455667788 {
		t.Fatalf("Load = %#x, %v", v, st)
	}
	if b.ReadSetSize() != 1 {
		t.Fatalf("ReadSetSize = %d", b.ReadSetSize())
	}
	// Second load hits the snapshot even if memory changed underneath.
	arena.WriteWord(64, 0xAAAA)
	v, st = b.Load(64, 8)
	if st != OK || v != 0x1122334455667788 {
		t.Fatalf("snapshot load = %#x, %v", v, st)
	}
}

func TestStoreDoesNotTouchArenaUntilCommit(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 7)
	if st := b.Store(64, 8, 99); st != OK {
		t.Fatal(st)
	}
	if arena.ReadWord(64) != 7 {
		t.Fatal("store leaked to arena before commit")
	}
	b.Commit(nil)
	if arena.ReadWord(64) != 99 {
		t.Fatal("commit did not apply store")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 7)
	b.Store(64, 8, 42)
	v, st := b.Load(64, 8)
	if st != OK || v != 42 {
		t.Fatalf("read-own-write = %d, %v", v, st)
	}
	// A pure read-after-write must not create a read-set entry (no
	// validation dependence on a location we only wrote).
	if b.ReadSetSize() != 0 {
		t.Fatalf("ReadSetSize = %d after write-then-read of full word", b.ReadSetSize())
	}
}

func TestSubWordStoreThenLoad(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 0x8877665544332211)
	if st := b.Store(66, 2, 0xBEEF); st != OK {
		t.Fatal(st)
	}
	// Bytes 2..3 replaced, everything else from the underlying word.
	v, st := b.Load(64, 8)
	if st != OK {
		t.Fatal(st)
	}
	want := uint64(0x88776655BEEF2211)
	if v != want {
		t.Fatalf("merged word = %#x, want %#x", v, want)
	}
	// The partially-unwritten load had to snapshot the word for validation.
	if b.ReadSetSize() != 1 {
		t.Fatalf("ReadSetSize = %d, want 1", b.ReadSetSize())
	}
}

func TestSubWordLoadFullyWrittenAvoidsReadSet(t *testing.T) {
	b, _ := newTestBuffer(t, 8, 8)
	b.Store(64, 4, 0xCAFEBABE)
	v, st := b.Load(64, 4)
	if st != OK || v != 0xCAFEBABE {
		t.Fatalf("load = %#x, %v", v, st)
	}
	if b.ReadSetSize() != 0 {
		t.Fatal("fully-written sub-word load entered the read set")
	}
}

func TestSubWordCommitAppliesOnlyMarkedBytes(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 0x8877665544332211)
	b.Store(64, 1, 0xAA)
	b.Store(67, 1, 0xBB)
	// The arena word changes under the speculative thread; unmarked bytes
	// must keep the *latest* arena values after commit.
	arena.WriteWord(64, 0x1111111111111111)
	b.Commit(nil)
	if got := arena.ReadWord(64); got != 0x11111111BB1111AA {
		t.Fatalf("commit result %#x", got)
	}
	if b.C.WordsCommitted != 0 {
		t.Fatalf("WordsCommitted = %d, want 0", b.C.WordsCommitted)
	}
}

func TestWholeWordCommitFastPath(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	b.Store(64, 8, 5)
	b.Store(72, 4, 1)
	b.Store(76, 4, 2) // together fully mark word 72
	b.Commit(nil)
	if arena.ReadWord(64) != 5 {
		t.Fatal("word commit failed")
	}
	if arena.ReadUint32(72) != 1 || arena.ReadUint32(76) != 2 {
		t.Fatal("two-half commit failed")
	}
	if b.C.WordsCommitted != 2 {
		t.Fatalf("WordsCommitted = %d, want 2 (fast path for both words)", b.C.WordsCommitted)
	}
}

func TestValidationDetectsConflict(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 1)
	b.Load(64, 8)
	if !b.Validate() {
		t.Fatal("validation failed with no interference")
	}
	arena.WriteWord(64, 2) // non-speculative write after speculative read
	if b.Validate() {
		t.Fatal("validation passed despite read-write conflict")
	}
	if b.C.ValidationFail == 0 {
		t.Fatal("failure not counted")
	}
}

func TestValidationIgnoresWriteOnlyWords(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	b.Store(64, 8, 42)
	arena.WriteWord(64, 7) // WAW is not a conflict in this model
	if !b.Validate() {
		t.Fatal("write-only access failed validation")
	}
}

func TestSubWordFalseSharingIsConservative(t *testing.T) {
	// Word-granularity validation: reading byte 0 conflicts with a
	// non-speculative write to byte 7 of the same word. The paper's design
	// validates whole read words; we document the same conservatism.
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 0)
	b.Load(64, 1)
	arena.WriteUint8(71, 9)
	if b.Validate() {
		t.Fatal("expected conservative word-granularity conflict")
	}
}

func TestMisalignedAccessRejected(t *testing.T) {
	b, _ := newTestBuffer(t, 8, 8)
	if _, st := b.Load(65, 8); st != Misaligned {
		t.Errorf("unaligned word load: %v", st)
	}
	if st := b.Store(66, 4, 1); st != Misaligned {
		t.Errorf("unaligned dword store: %v", st)
	}
	if _, st := b.Load(64, 3); st != Misaligned {
		t.Errorf("weird size load: %v", st)
	}
	if st := b.Store(64, 0, 1); st != Misaligned {
		t.Errorf("zero size store: %v", st)
	}
}

// Two addresses that collide in a 2^4-word map: slots are (addr>>3)&15, so
// addresses 8*k and 8*(k+16) collide.
func collidingAddrs() (mem.Addr, mem.Addr) { return 64, 64 + 16*8 }

func TestHashConflictGoesToOverflow(t *testing.T) {
	b, arena := newTestBuffer(t, 4, 4)
	a1, a2 := collidingAddrs()
	arena.WriteWord(a1, 11)
	arena.WriteWord(a2, 22)
	if _, st := b.Load(a1, 8); st != OK {
		t.Fatal(st)
	}
	v, st := b.Load(a2, 8)
	if st != Conflict {
		t.Fatalf("colliding load status %v", st)
	}
	if v != 22 {
		t.Fatalf("overflow load value %d", v)
	}
	if !b.MustStop() {
		t.Fatal("overflow did not set MustStop")
	}
	// Overflow entries still participate in snapshots and validation.
	v, st = b.Load(a2, 8)
	if st != OK || v != 22 {
		t.Fatalf("re-load of overflow entry = %d, %v", v, st)
	}
	if !b.Validate() {
		t.Fatal("validation failed with overflow entry intact")
	}
	arena.WriteWord(a2, 33)
	if b.Validate() {
		t.Fatal("overflow read conflict missed")
	}
}

func TestWriteOverflowCommits(t *testing.T) {
	b, arena := newTestBuffer(t, 4, 4)
	a1, a2 := collidingAddrs()
	if st := b.Store(a1, 8, 1); st != OK {
		t.Fatal(st)
	}
	if st := b.Store(a2, 8, 2); st != Conflict {
		t.Fatalf("colliding store status %v", st)
	}
	// Updating the parked word must modify the overflow entry in place.
	if st := b.Store(a2, 8, 3); st != OK {
		t.Fatalf("update of overflow entry status %v", st)
	}
	b.Commit(nil)
	if arena.ReadWord(a1) != 1 || arena.ReadWord(a2) != 3 {
		t.Fatalf("commit = %d, %d", arena.ReadWord(a1), arena.ReadWord(a2))
	}
}

func TestOverflowExhaustionReturnsFull(t *testing.T) {
	b, _ := newTestBuffer(t, 1, 1) // 2-word map, 1 overflow slot
	// Fill both map slots and the overflow slot with colliding words.
	if st := b.Store(64, 8, 1); st != OK {
		t.Fatal(st)
	}
	if st := b.Store(64+2*8, 8, 2); st != Conflict {
		t.Fatal(st)
	}
	if st := b.Store(64+4*8, 8, 3); st != Full {
		t.Fatalf("expected Full, got %v", st)
	}
	// Read side exhaustion too.
	b2, _ := newTestBuffer(t, 1, 1)
	b2.Load(64, 8)
	if _, st := b2.Load(64+2*8, 8); st != Conflict {
		t.Fatal(st)
	}
	if _, st := b2.Load(64+4*8, 8); st != Full {
		t.Fatalf("expected read Full, got %v", st)
	}
}

func TestFinalizeResetsEverything(t *testing.T) {
	b, arena := newTestBuffer(t, 4, 4)
	a1, a2 := collidingAddrs()
	arena.WriteWord(a1, 1)
	b.Load(a1, 8)
	b.Store(a1, 4, 9)
	b.Load(a2, 8) // overflow
	b.Finalize()
	if b.ReadSetSize() != 0 || b.WriteSetSize() != 0 || b.MustStop() {
		t.Fatal("finalize left state behind")
	}
	// After finalize the buffer must behave as fresh: stores do not leak,
	// loads re-snapshot.
	arena.WriteWord(a1, 123)
	v, st := b.Load(a1, 8)
	if st != OK || v != 123 {
		t.Fatalf("post-finalize load = %d, %v", v, st)
	}
	b.Finalize()
	b.Commit(nil) // empty commit is a no-op
	if arena.ReadWord(a1) != 123 {
		t.Fatal("empty commit changed memory")
	}
}

func TestRollbackViaFinalizeDiscardsWrites(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 7)
	b.Store(64, 8, 100)
	b.Finalize() // rollback = discard without commit
	if arena.ReadWord(64) != 7 {
		t.Fatal("rollback leaked a write")
	}
}

func TestCountersAccumulate(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(64, 1)
	b.Load(64, 8)
	b.Load(64, 8)
	b.Store(72, 8, 2)
	if b.ReadSetSize() != 1 || b.WriteSetSize() != 1 {
		t.Fatalf("sets of %d/%d words, want 1/1 (the second load is a read-set hit)", b.ReadSetSize(), b.WriteSetSize())
	}
	if !b.Validate() {
		t.Fatal("validation failed with no foreign write")
	}
	b.Commit(nil)
	if want := (Counters{Validations: 1, WordsValidated: 1, WordsCommitted: 1}); b.C != want {
		t.Fatalf("counters %+v, want %+v", b.C, want)
	}
	var sum Counters
	sum.Add(&b.C)
	sum.Add(&b.C)
	if want := (Counters{Validations: 2, WordsValidated: 2, WordsCommitted: 2}); sum != want {
		t.Fatalf("Add summed %+v, want %+v", sum, want)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		OK: "OK", Conflict: "Conflict", Full: "Full", Misaligned: "Misaligned", Status(9): "Status(9)",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q", st, st.String())
		}
	}
}

func TestAllSizesRoundTrip(t *testing.T) {
	b, arena := newTestBuffer(t, 8, 8)
	arena.WriteWord(128, 0)
	cases := []struct {
		p    mem.Addr
		size int
		v    uint64
	}{
		{128, 1, 0xAB}, {130, 2, 0xCDEF}, {132, 4, 0xDEADBEEF}, {136, 8, 0x1234567890ABCDEF},
	}
	for _, c := range cases {
		if st := b.Store(c.p, c.size, c.v); st != OK {
			t.Fatalf("store size %d: %v", c.size, st)
		}
		v, st := b.Load(c.p, c.size)
		if st != OK || v != c.v {
			t.Fatalf("load size %d = %#x, %v (want %#x)", c.size, v, st, c.v)
		}
	}
	b.Commit(nil)
	if got := arena.ReadUint8(128); got != 0xAB {
		t.Errorf("committed byte %#x", got)
	}
	if got := arena.ReadUint16(130); got != 0xCDEF {
		t.Errorf("committed u16 %#x", got)
	}
	if got := arena.ReadUint32(132); got != 0xDEADBEEF {
		t.Errorf("committed u32 %#x", got)
	}
	if got := arena.ReadWord(136); got != 0x1234567890ABCDEF {
		t.Errorf("committed word %#x", got)
	}
}
