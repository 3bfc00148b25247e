package gbuf

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestBackendsRegistered(t *testing.T) {
	got := Backends()
	want := []string{"bitmap", "chain", "openaddr"}
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
}

func TestNewBackendDefaultsToBitmap(t *testing.T) {
	if DefaultBackend != "bitmap" {
		t.Fatalf("DefaultBackend = %q, want bitmap", DefaultBackend)
	}
	arena, _ := mem.NewArena(1 << 12)
	// NewBackend resolves an empty name itself.
	for _, cfg := range []Config{{}, Config{}.WithDefaults()} {
		b, err := NewBackend(arena, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.(*bitmapBuffer); !ok {
			t.Fatalf("config %+v built %T, want *bitmapBuffer", cfg, b)
		}
	}
	if got := (Config{}).WithDefaults().Backend; got != "bitmap" {
		t.Fatalf("WithDefaults names %q", got)
	}
}

func TestNewBackendUnknownName(t *testing.T) {
	arena, _ := mem.NewArena(1 << 12)
	_, err := NewBackend(arena, Config{Backend: "cuckoo"})
	if err == nil || !strings.Contains(err.Error(), "cuckoo") {
		t.Fatalf("unknown backend error = %v", err)
	}
}

func TestConfigValidationAtConstruction(t *testing.T) {
	arena, _ := mem.NewArena(1 << 12)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"openaddr zero LogWords", Config{Backend: "openaddr", LogWords: 0, OverflowCap: 4}},
		{"openaddr negative LogWords", Config{Backend: "openaddr", LogWords: -3, OverflowCap: 4}},
		{"openaddr LogWords over 30", Config{Backend: "openaddr", LogWords: 31, OverflowCap: 4}},
		{"openaddr negative OverflowCap", Config{Backend: "openaddr", LogWords: 8, OverflowCap: -2}},
	}
	for _, c := range cases {
		if _, err := NewBackend(arena, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestNoOverflowSentinel: OverflowCap 0 selects the default capacity, while
// NoOverflow requests a strict buffer whose first hash conflict is Full.
func TestNoOverflowSentinel(t *testing.T) {
	if c := (Config{OverflowCap: NoOverflow}).WithDefaults(); c.OverflowCap != NoOverflow {
		t.Fatalf("WithDefaults rewrote NoOverflow to %d", c.OverflowCap)
	}
	arena, _ := mem.NewArena(1 << 12)
	b, err := New(arena, Config{LogWords: 1, OverflowCap: NoOverflow})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Store(64, 8, 1); st != OK {
		t.Fatal(st)
	}
	// 2-word map: 64 and 64+2*8 collide; with no parking the conflict is
	// immediately Full.
	if st := b.Store(64+2*8, 8, 2); st != Full {
		t.Fatalf("no-overflow conflict = %v, want Full", st)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.Backend != DefaultBackend || d.LogWords != 16 || d.OverflowCap != 64 {
		t.Fatalf("WithDefaults = %+v", d)
	}
	// Set fields survive.
	c := Config{Backend: "chain", LogWords: 5}.WithDefaults()
	if c.Backend != "chain" || c.LogWords != 5 {
		t.Fatalf("WithDefaults clobbered set fields: %+v", c)
	}
	// Every defaulted config constructs.
	arena, _ := mem.NewArena(1 << 12)
	for _, name := range Backends() {
		if _, err := NewBackend(arena, Config{Backend: name}.WithDefaults()); err != nil {
			t.Errorf("%s: defaulted config rejected: %v", name, err)
		}
	}
}

// TestChainAbsorbsCollisions: addresses that collide in their buckets just
// chain — no Conflict, no Full, no MustStop — and all of them validate and
// commit.
func TestChainAbsorbsCollisions(t *testing.T) {
	const n = 64
	// Two buckets, 32 entries chained on each: words 1 and 2 plus
	// multiples of chainBuckets.
	addr := func(i int) mem.Addr { return mem.Addr(mem.Word * (1 + i%2 + i/2*chainBuckets)) }
	arena, _ := mem.NewArena(n / 2 * chainBuckets * mem.Word)
	b, err := NewBackend(arena, Config{Backend: "chain"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := addr(i)
		arena.WriteWord(p, uint64(i))
		if v, st := b.Load(p, 8); st != OK || v != uint64(i) {
			t.Fatalf("load %d = %d, %v", i, v, st)
		}
		if st := b.Store(p, 8, uint64(i)*3); st != OK {
			t.Fatalf("store %d: %v", i, st)
		}
	}
	if b.MustStop() {
		t.Fatal("chain backend set MustStop")
	}
	if b.ReadSetSize() != n || b.WriteSetSize() != n {
		t.Fatalf("set sizes %d/%d, want %d/%d", b.ReadSetSize(), b.WriteSetSize(), n, n)
	}
	if c := b.Counters(); c.Conflicts != 0 {
		t.Fatalf("chain counted %d conflicts", c.Conflicts)
	}
	if !b.Validate() {
		t.Fatal("validation failed without interference")
	}
	b.Commit(nil)
	for i := 0; i < n; i++ {
		if got := arena.ReadWord(addr(i)); got != uint64(i)*3 {
			t.Fatalf("commit word %d = %d", i, got)
		}
	}
}

// TestChainReadYourOwnWrites: a fully-written word never enters the read
// set (same contract as openaddr).
func TestChainReadYourOwnWrites(t *testing.T) {
	arena, _ := mem.NewArena(1 << 12)
	b, _ := NewBackend(arena, Config{Backend: "chain"})
	b.Store(64, 8, 42)
	if v, st := b.Load(64, 8); st != OK || v != 42 {
		t.Fatalf("read-own-write = %d, %v", v, st)
	}
	if b.ReadSetSize() != 0 {
		t.Fatalf("ReadSetSize = %d after write-then-read", b.ReadSetSize())
	}
}

// TestBitmapDenseWrites: a dense sweep touches few pages, counts words
// exactly, and commits whole words on the fast path.
func TestBitmapDenseWrites(t *testing.T) {
	arena, _ := mem.NewArena(4 * mem.StampPageBytes)
	b, err := NewBackend(arena, Config{Backend: "bitmap"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * pageWords // from word 1: three pages
	for i := 0; i < n; i++ {
		if st := b.Store(mem.Addr(8*(1+i)), 8, uint64(i)+1); st != OK {
			t.Fatalf("store %d: %v", i, st)
		}
	}
	if b.WriteSetSize() != n {
		t.Fatalf("WriteSetSize = %d, want %d", b.WriteSetSize(), n)
	}
	if b.MustStop() {
		t.Fatal("bitmap backend set MustStop")
	}
	b.Commit(nil)
	for i := 0; i < n; i++ {
		if got := arena.ReadWord(mem.Addr(8 * (1 + i))); got != uint64(i)+1 {
			t.Fatalf("commit word %d = %d", i, got)
		}
	}
	if c := b.Counters(); c.WordsCommitted != n {
		t.Fatalf("counters %+v, want %d whole words", c, n)
	}
}

// TestBitmapSubWordMerge: sub-word stores seed from the arena and commit
// only the marked bytes.
func TestBitmapSubWordMerge(t *testing.T) {
	arena, _ := mem.NewArena(1 << 12)
	b, _ := NewBackend(arena, Config{Backend: "bitmap"})
	arena.WriteWord(64, 0x8877665544332211)
	if st := b.Store(66, 2, 0xBEEF); st != OK {
		t.Fatal(st)
	}
	v, st := b.Load(64, 8)
	if st != OK || v != 0x88776655BEEF2211 {
		t.Fatalf("merged word = %#x, %v", v, st)
	}
	// The arena word changes underneath; unmarked bytes keep the latest
	// arena values after commit.
	arena.WriteWord(64, 0x1111111111111111)
	b.Commit(nil)
	if got := arena.ReadWord(64); got != 0x11111111BEEF1111 {
		t.Fatalf("commit result %#x, want 0x11111111BEEF1111", got)
	}
}

// TestBitmapPageRecycling: pages freed by Finalize are reused, and recycled
// pages carry no stale data.
func TestBitmapPageRecycling(t *testing.T) {
	arena, _ := mem.NewArena(4 * mem.StampPageBytes)
	b, _ := NewBackend(arena, Config{Backend: "bitmap"})
	for round := 0; round < 4; round++ {
		base := mem.Addr(8 + round*mem.StampPageBytes) // a new page each round
		arena.WriteWord(base, uint64(round)+7)
		if v, st := b.Load(base, 8); st != OK || v != uint64(round)+7 {
			t.Fatalf("round %d: load = %d, %v", round, v, st)
		}
		b.Store(base+8, 1, 0xAB) // sub-word: marks must be clean each round
		if !b.Validate() {
			t.Fatalf("round %d: validation failed", round)
		}
		b.Finalize()
		if b.ReadSetSize() != 0 || b.WriteSetSize() != 0 {
			t.Fatalf("round %d: finalize left words", round)
		}
	}
}
