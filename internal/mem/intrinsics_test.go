package mem

import (
	"math/rand"
	"testing"
)

// refZero is the pre-intrinsic byte-at-a-time Zero, kept as the oracle (and
// the benchmark reference) for the word-batched paths.
func refZero(a *Arena, p Addr, n int) {
	for i := 0; i < n; i++ {
		a.WriteUint8(p+Addr(i), 0)
	}
}

// writeBytes stores data at p a byte at a time.
func writeBytes(a *Arena, p Addr, data []byte) {
	for i, b := range data {
		a.WriteUint8(p+Addr(i), b)
	}
}

func TestFillWords(t *testing.T) {
	a, _ := NewArena(1 << 12)
	a.FillWords(64, 16, 0xA1B2C3D4E5F60718)
	for k := 0; k < 16; k++ {
		if got := a.ReadWord(64 + Addr(k*Word)); got != 0xA1B2C3D4E5F60718 {
			t.Fatalf("word %d = %#x", k, got)
		}
	}
	// Neighbours untouched.
	if a.ReadWord(56) != 0 || a.ReadWord(64+16*Word) != 0 {
		t.Fatal("fill leaked outside its run")
	}
	a.ZeroWords(64, 16)
	for k := 0; k < 16; k++ {
		if got := a.ReadWord(64 + Addr(k*Word)); got != 0 {
			t.Fatalf("zeroed word %d = %#x", k, got)
		}
	}
	a.FillWords(64, 0, 7) // empty fill is a no-op
	for _, bad := range []func(){
		func() { a.FillWords(60, 2, 1) },  // misaligned
		func() { a.FillWords(64, -1, 1) }, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad intrinsic geometry did not panic")
				}
			}()
			bad()
		}()
	}
}

// Property: the word-batched Zero and Snapshot agree with the byte-at-a-time
// reference on every alignment and length.
func TestByteOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, _ := NewArena(1 << 12)
	b, _ := NewArena(1 << 12)
	for trial := 0; trial < 500; trial++ {
		p := Addr(8 + rng.Intn(2000))
		n := rng.Intn(70)
		data := make([]byte, n)
		rng.Read(data)
		writeBytes(a, p, data)
		writeBytes(b, p, data)
		q := Addr(8 + rng.Intn(2000))
		m := rng.Intn(70)
		a.Zero(q, m)
		refZero(b, q, m)
		if trial%3 == 0 {
			dst := Addr(2100 + rng.Intn(1000))
			writeBytes(a, dst, a.Snapshot(p, n))
			writeBytes(b, dst, b.Snapshot(p, n))
		}
		for i := Word; i < a.Size(); i += Word {
			if got, want := a.ReadWord(Addr(i)), b.ReadWord(Addr(i)); got != want {
				t.Fatalf("trial %d: word at %d = %#x, want %#x", trial, i, got, want)
			}
		}
		snap := a.Snapshot(p, n)
		for i := range snap {
			if snap[i] != b.ReadUint8(p+Addr(i)) {
				t.Fatalf("trial %d: snapshot byte %d differs", trial, i)
			}
		}
	}
}

func TestWriteStamps(t *testing.T) {
	ws, err := NewWriteStamps(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := ws.Snapshot()
	if ws.DirtySince(0, 1<<16, snap) {
		t.Fatal("fresh table reports dirty")
	}
	ws.Mark(5000, 16) // page 1
	if !ws.DirtySince(4096, 8, snap) {
		t.Fatal("marked page not dirty")
	}
	if ws.DirtySince(0, 4096, snap) {
		t.Fatal("unmarked page dirty")
	}
	if ws.DirtySince(8192, 8, snap) {
		t.Fatal("later page dirty")
	}
	// A span overlapping the dirty page is dirty.
	if !ws.DirtySince(4000, 200, snap) {
		t.Fatal("overlapping span not dirty")
	}
	// A snapshot taken after the mark sees a clean table.
	snap2 := ws.Snapshot()
	if ws.DirtySince(0, 1<<16, snap2) {
		t.Fatal("post-mark snapshot reports dirty")
	}
	// Page-boundary straddling mark stamps both pages.
	ws.Mark(8190, 8)
	if !ws.DirtySince(4096, 8, snap2) || !ws.DirtySince(8192, 8, snap2) {
		t.Fatal("straddling mark missed a page")
	}
	if _, err := NewWriteStamps(64, StampPageBytes/2); err == nil {
		t.Fatal("a page size other than the fixed one accepted")
	}
}

// TestCommitWordsPaths: CommitWords leaves the arena image WriteWords
// leaves whether it is stamped or not — the unstamped copy moves the run's
// little-endian bytes as the words' memory — and only the stamped one
// marks, exactly the pages the run overlaps. Runs cross page borders and
// start and end anywhere in a page; an empty run changes nothing.
func TestCommitWordsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const size = 8 * StampPageBytes
	want, _ := NewArena(size)
	plain, _ := NewArena(size)
	stamped, _ := NewArena(size)
	ws, _ := NewWriteStamps(size, 0)
	src := make([]byte, 3*StampPageBytes)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(len(src)/Word+1) * Word
		p := Addr(Word * (1 + rng.Intn((size-n)/Word-1)))
		rng.Read(src[:n])
		snap := ws.Snapshot()
		want.WriteWords(p, src[:n])
		plain.CommitWords(p, src[:n], nil)
		stamped.CommitWords(p, src[:n], ws)
		for q := Addr(Word); q < size; q += Word {
			if w := want.ReadWord(q); plain.ReadWord(q) != w || stamped.ReadWord(q) != w {
				t.Fatalf("trial %d, run [%d,+%d): word %d reads %#x unstamped, %#x stamped, want %#x",
					trial, p, n, q, plain.ReadWord(q), stamped.ReadWord(q), w)
			}
		}
		for pg := Addr(0); pg < size; pg += StampPageBytes {
			overlaps := n > 0 && pg < p+Addr(n) && p < pg+StampPageBytes
			if got := ws.DirtySince(pg, StampPageBytes, snap); got != overlaps {
				t.Fatalf("trial %d, run [%d,+%d): page %d dirty %v, want %v", trial, p, n, pg/StampPageBytes, got, overlaps)
			}
		}
	}
}

// BenchmarkArenaFill prices zeroing a dense 4 KiB block: the word-batched
// intrinsic (ZeroWords under Zero) against the pre-intrinsic byte-at-a-time
// reference. The acceptance bar for the commit-path work is ≥ 2x fewer
// ns/op for the intrinsic.
func BenchmarkArenaFill(b *testing.B) {
	const block = 4096
	a, _ := NewArena(1 << 16)
	b.Run("words", func(b *testing.B) {
		b.SetBytes(block)
		for i := 0; i < b.N; i++ {
			a.Zero(64, block)
		}
	})
	b.Run("bytes-reference", func(b *testing.B) {
		b.SetBytes(block)
		for i := 0; i < b.N; i++ {
			refZero(a, 64, block)
		}
	})
	b.Run("fill-words", func(b *testing.B) {
		b.SetBytes(block)
		for i := 0; i < b.N; i++ {
			a.FillWords(64, block/Word, 0x0101010101010101)
		}
	})
}
