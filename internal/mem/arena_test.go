package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewArenaRejectsTinySizes(t *testing.T) {
	for _, size := range []int{-1, 0, 1, Word, 3 * Word} {
		if _, err := NewArena(size); err == nil {
			t.Errorf("NewArena(%d) succeeded, want error", size)
		}
	}
}

func TestNewArenaSize(t *testing.T) {
	a, err := NewArena(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 1024 {
		t.Fatalf("Size() = %d, want 1024", a.Size())
	}
}

func TestInBounds(t *testing.T) {
	a, _ := NewArena(64)
	cases := []struct {
		p    Addr
		n    int
		want bool
	}{
		{NilAddr, 1, false}, // nil address never valid
		{1, 1, true},
		{63, 1, true},
		{63, 2, false},
		{64, 1, false},
		{8, 56, true},
		{8, 57, false},
		{8, -1, false},
		{Addr(math.MaxUint64), 8, false}, // wraps
	}
	for _, c := range cases {
		if got := a.InBounds(c.p, c.n); got != c.want {
			t.Errorf("InBounds(%d, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestOutOfBoundsAccessPanics(t *testing.T) {
	a, _ := NewArena(64)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	a.Snapshot(60, 8)
}

func TestUnalignedWordAccessPanics(t *testing.T) {
	a, _ := NewArena(64)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned word access did not panic")
		}
	}()
	a.ReadWord(13)
}

func TestSnapshotCopiesBytes(t *testing.T) {
	a, _ := NewArena(128)
	src := []byte{9, 8, 7, 6, 5}
	writeBytes(a, 21, src)
	got := a.Snapshot(21, 5)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
	// Snapshot is a copy: mutating it must not affect the arena.
	got[0] = 99
	if a.ReadUint8(21) != 9 {
		t.Fatal("snapshot aliases arena")
	}
}

func TestWordRoundTrip(t *testing.T) {
	a, _ := NewArena(128)
	a.WriteWord(8, 0xDEADBEEFCAFEF00D)
	if got := a.ReadWord(8); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadWord = %#x", got)
	}
	// Little-endian layout: low byte first.
	if got := a.ReadUint8(8); got != 0x0D {
		t.Fatalf("low byte = %#x, want 0x0D", got)
	}
}

func TestTypedRoundTrips(t *testing.T) {
	a, _ := NewArena(256)
	a.WriteUint8(17, 0xAB)
	if got := a.ReadUint8(17); got != 0xAB {
		t.Errorf("uint8 = %#x", got)
	}
	a.WriteUint16(18, 0xBEEF)
	if got := a.ReadUint16(18); got != 0xBEEF {
		t.Errorf("uint16 = %#x", got)
	}
	a.WriteUint32(20, 0xCAFEBABE)
	if got := a.ReadUint32(20); got != 0xCAFEBABE {
		t.Errorf("uint32 = %#x", got)
	}
	a.WriteWord(24, uint64(1<<64-42))
	if got := a.ReadInt64(24); got != -42 {
		t.Errorf("int64 = %d", got)
	}
}

func TestCopyAndZero(t *testing.T) {
	a, _ := NewArena(128)
	for i := 0; i < 16; i++ {
		a.WriteUint8(Addr(40+i), uint8(i+1))
	}
	a.Zero(40, 16)
	for i := 0; i < 16; i++ {
		if got := a.ReadUint8(Addr(40 + i)); got != 0 {
			t.Fatalf("Zero byte %d = %d", i, got)
		}
	}
}

func TestAligned(t *testing.T) {
	cases := []struct {
		p    Addr
		size int
		want bool
	}{
		{8, 8, true}, {12, 8, false}, {12, 4, true}, {13, 4, false},
		{13, 1, true}, {14, 2, true}, {15, 2, false}, {16, 16, true},
		{8, 0, false}, {8, -4, false},
	}
	for _, c := range cases {
		if got := Aligned(c.p, c.size); got != c.want {
			t.Errorf("Aligned(%d, %d) = %v, want %v", c.p, c.size, got, c.want)
		}
	}
}

func TestWordBaseOffset(t *testing.T) {
	for p := Addr(64); p < 80; p++ {
		if WordBase(p) != (p/Word)*Word {
			t.Fatalf("WordBase(%d) = %d", p, WordBase(p))
		}
		if WordOffset(p) != int(p%Word) {
			t.Fatalf("WordOffset(%d) = %d", p, WordOffset(p))
		}
		if WordBase(p)+Addr(WordOffset(p)) != p {
			t.Fatalf("base+offset != p for %d", p)
		}
	}
}

// Property: writing a word and reading it back through byte accessors agrees
// with the little-endian encoding.
func TestQuickWordByteConsistency(t *testing.T) {
	a, _ := NewArena(1 << 12)
	f := func(v uint64, slot uint8) bool {
		p := Addr(8 + (uint64(slot)%500)*8)
		a.WriteWord(p, v)
		var rebuilt uint64
		for i := 0; i < 8; i++ {
			rebuilt |= uint64(a.ReadUint8(p+Addr(i))) << (8 * i)
		}
		return rebuilt == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Bulk word-run helpers must agree with their word-at-a-time equivalents
// and reject misaligned geometries.
func TestWordRunHelpers(t *testing.T) {
	a, _ := NewArena(1 << 12)
	base := Addr(64)
	n := 16 // words
	src := make([]byte, n*Word)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	a.WriteWords(base, src)
	for k := 0; k < n; k++ {
		want := uint64(0)
		for b := Word - 1; b >= 0; b-- {
			want = want<<8 | uint64(src[k*Word+b])
		}
		if got := a.ReadWord(base + Addr(k*Word)); got != want {
			t.Fatalf("word %d = %#x, want %#x", k, got, want)
		}
	}
	dst := make([]byte, n*Word)
	a.ReadWords(base, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("ReadWords byte %d = %#x, want %#x", i, dst[i], src[i])
		}
	}
	if !a.EqualWords(base, src) {
		t.Fatal("EqualWords false on equal data")
	}
	src[37] ^= 0xFF
	if a.EqualWords(base, src) {
		t.Fatal("EqualWords true on differing data")
	}

	for _, bad := range []func(){
		func() { a.ReadWords(base+1, dst) },
		func() { a.ReadWords(base, dst[:Word+1]) },
		func() { a.WriteWords(base+4, src) },
		func() { a.EqualWords(base+7, src) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("misaligned word-run access did not panic")
				}
			}()
			bad()
		}()
	}
}
