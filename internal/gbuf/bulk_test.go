package gbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// This file is the bulk-path oracle: LoadRange/StoreRange must be
// observationally identical to a word-at-a-time Load/Store loop on every
// backend — same statuses, same read/write sets, same counters, same
// validation outcome and same committed arena bytes — including ranges
// that straddle bitmap page boundaries and ranges that run into openaddr
// hash conflicts and overflow exhaustion.

// refLoadRange is the word-at-a-time reference for LoadRange: it stops at
// the first Full (the caller would roll back there) and folds the per-word
// statuses into the worst outcome.
func refLoadRange(b Backend, p mem.Addr, dst []byte) Status {
	if len(dst)%mem.Word != 0 || !mem.Aligned(p, mem.Word) {
		return Misaligned
	}
	st := OK
	for k := 0; k+mem.Word <= len(dst); k += mem.Word {
		v, s := b.Load(p+mem.Addr(k), mem.Word)
		if s == Full {
			return Full
		}
		st = worse(st, s)
		binary.LittleEndian.PutUint64(dst[k:], v)
	}
	return st
}

// refStoreRange is the word-at-a-time reference for StoreRange.
func refStoreRange(b Backend, p mem.Addr, src []byte) Status {
	if len(src)%mem.Word != 0 || !mem.Aligned(p, mem.Word) {
		return Misaligned
	}
	st := OK
	for k := 0; k+mem.Word <= len(src); k += mem.Word {
		s := b.Store(p+mem.Addr(k), mem.Word, binary.LittleEndian.Uint64(src[k:]))
		if s == Full {
			return Full
		}
		st = worse(st, s)
	}
	return st
}

// bulkStressConfigs sizes the openaddr maps small enough that random
// scripts hit hash conflicts and overflow exhaustion; the scripts' address
// windows (bulkWordAddr) make chain buckets collide and ranges straddle
// bitmap pages.
func bulkStressConfigs() map[string]Config {
	return map[string]Config{
		"openaddr":            {Backend: "openaddr", LogWords: 6, OverflowCap: 4},
		"openaddr/nooverflow": {Backend: "openaddr", LogWords: 6, OverflowCap: NoOverflow},
		"chain":               {Backend: "chain"},
		"bitmap":              {Backend: "bitmap"},
	}
}

// bulkArenaBytes holds both windows of bulkWordAddr: ten bitmap pages.
const bulkArenaBytes = (chainBuckets + 2*pageWords) * mem.Word

// bulkWordAddr draws a word address from one of two 200-word windows, each
// centred on a bitmap page boundary and chainBuckets words from the other:
// ranges of up to 32 words cross the boundary, and the two windows share
// their chain buckets.
func bulkWordAddr(rng *rand.Rand) mem.Addr {
	word := pageWords - 100 + rng.Intn(200)
	if rng.Intn(2) == 1 {
		word += chainBuckets
	}
	return mem.Addr(mem.Word * word)
}

func newSeededArena(t *testing.T, rng *rand.Rand) *mem.Arena {
	t.Helper()
	a, err := mem.NewArena(bulkArenaBytes)
	if err != nil {
		t.Fatal(err)
	}
	for p := mem.Addr(mem.Word); p < mem.Addr(bulkArenaBytes); p += mem.Word {
		a.WriteWord(p, rng.Uint64())
	}
	return a
}

// TestBulkMatchesWordAtATime drives random access scripts through a bulk
// buffer and a word-at-a-time reference buffer over identically seeded
// arenas and requires observational equivalence at every step and at
// commit.
func TestBulkMatchesWordAtATime(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 20; seed++ {
				runBulkScript(t, cfg, seed)
			}
		})
	}
}

func runBulkScript(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	arenaBulk := newSeededArena(t, rand.New(rand.NewSource(seed^0x5DEECE66D)))
	arenaRef := newSeededArena(t, rand.New(rand.NewSource(seed^0x5DEECE66D)))
	bulk, err := NewBackend(arenaBulk, cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewBackend(arenaRef, cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{1, 2, 4, 8}

	dead := false // a Full was observed: the thread would have rolled back
	for step := 0; step < 300 && !dead; step++ {
		ctx := fmt.Sprintf("cfg=%+v seed=%d step=%d", cfg, seed, step)
		switch rng.Intn(5) {
		case 0: // word store
			size := sizes[rng.Intn(len(sizes))]
			p := bulkWordAddr(rng) + mem.Addr(rng.Intn(mem.Word/size)*size)
			v := rng.Uint64()
			s1 := bulk.Store(p, size, v)
			s2 := ref.Store(p, size, v)
			if s1 != s2 {
				t.Fatalf("%s: word store status %v != %v", ctx, s1, s2)
			}
			dead = s1 == Full
		case 1: // word load
			size := sizes[rng.Intn(len(sizes))]
			p := bulkWordAddr(rng) + mem.Addr(rng.Intn(mem.Word/size)*size)
			v1, s1 := bulk.Load(p, size)
			v2, s2 := ref.Load(p, size)
			if s1 != s2 || v1 != v2 {
				t.Fatalf("%s: word load (%#x,%v) != (%#x,%v)", ctx, v1, s1, v2, s2)
			}
			dead = s1 == Full
		case 2: // range store
			p := bulkWordAddr(rng)
			n := rng.Intn(33) * mem.Word
			src := make([]byte, n)
			rng.Read(src)
			s1 := bulk.StoreRange(p, src)
			s2 := refStoreRange(ref, p, src)
			if s1 != s2 {
				t.Fatalf("%s: range store status %v != %v", ctx, s1, s2)
			}
			dead = s1 == Full
		case 3: // range load
			p := bulkWordAddr(rng)
			n := rng.Intn(33) * mem.Word
			d1 := make([]byte, n)
			d2 := make([]byte, n)
			s1 := bulk.LoadRange(p, d1)
			s2 := refLoadRange(ref, p, d2)
			if s1 != s2 {
				t.Fatalf("%s: range load status %v != %v", ctx, s1, s2)
			}
			dead = s1 == Full
			if dead {
				break
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("%s: range load byte %d: %#x != %#x", ctx, i, d1[i], d2[i])
				}
			}
		case 4: // a non-speculative write lands in both arenas (validation fodder)
			p := bulkWordAddr(rng)
			v := rng.Uint64()
			arenaBulk.WriteWord(p, v)
			arenaRef.WriteWord(p, v)
		}
		if bulk.MustStop() != ref.MustStop() {
			t.Fatalf("%s: MustStop %v != %v", ctx, bulk.MustStop(), ref.MustStop())
		}
	}

	ctx := fmt.Sprintf("cfg=%+v seed=%d", cfg, seed)
	if r1, r2 := bulk.ReadSetSize(), ref.ReadSetSize(); r1 != r2 {
		t.Fatalf("%s: read set size %d != %d", ctx, r1, r2)
	}
	if w1, w2 := bulk.WriteSetSize(), ref.WriteSetSize(); w1 != w2 {
		t.Fatalf("%s: write set size %d != %d", ctx, w1, w2)
	}
	if c1, c2 := *bulk.Counters(), *ref.Counters(); c1 != c2 {
		t.Fatalf("%s: counters\n bulk %+v\n ref  %+v", ctx, c1, c2)
	}
	if dead {
		return // rolled back: buffers are discarded, nothing commits
	}
	v1, v2 := bulk.Validate(), ref.Validate()
	if v1 != v2 {
		t.Fatalf("%s: validate %v != %v", ctx, v1, v2)
	}
	if !v1 {
		return
	}
	bulk.Commit(nil)
	ref.Commit(nil)
	if c1, c2 := *bulk.Counters(), *ref.Counters(); c1 != c2 {
		t.Fatalf("%s: post-commit counters\n bulk %+v\n ref  %+v", ctx, c1, c2)
	}
	for p := mem.Addr(mem.Word); p < mem.Addr(bulkArenaBytes); p += mem.Word {
		if a, b := arenaBulk.ReadWord(p), arenaRef.ReadWord(p); a != b {
			t.Fatalf("%s: committed arena word %d: %#x != %#x", ctx, p, a, b)
		}
	}
}

// TestBulkMisalignedGeometry checks that every backend rejects non-word
// range geometries without touching any state.
func TestBulkMisalignedGeometry(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			a, err := mem.NewArena(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBackend(a, cfg.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2*mem.Word)
			if st := b.LoadRange(12, buf); st != Misaligned {
				t.Fatalf("unaligned LoadRange: %v", st)
			}
			if st := b.StoreRange(16, buf[:mem.Word+1]); st != Misaligned {
				t.Fatalf("ragged StoreRange: %v", st)
			}
			if b.ReadSetSize() != 0 || b.WriteSetSize() != 0 {
				t.Fatalf("misaligned geometry touched the sets: %d/%d",
					b.ReadSetSize(), b.WriteSetSize())
			}
		})
	}
}

// TestBulkValidationDetectsConflict makes sure a run-batched validation
// still sees a single clobbered word in the middle of a bulk-loaded run.
func TestBulkValidationDetectsConflict(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			a, err := mem.NewArena(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBackend(a, cfg.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			base := mem.Addr(64)
			dst := make([]byte, 24*mem.Word)
			if st := b.LoadRange(base, dst); st != OK {
				t.Fatalf("LoadRange: %v", st)
			}
			if !b.Validate() {
				t.Fatal("clean validation failed")
			}
			a.WriteWord(base+13*mem.Word, 0xDEAD)
			if b.Validate() {
				t.Fatal("validation missed a clobbered word inside a run")
			}
		})
	}
}

// TestLoadRangeOwnWrites: a range load wholly covered by the speculation's
// own StoreRanges returns the written bytes and stays out of the
// read set, so the speculation still validates after the arena words
// underneath change.
func TestLoadRangeOwnWrites(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		arena := newSeededArena(t, rand.New(rand.NewSource(3)))
		be, err := NewBackend(arena, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A 100-word StoreRange of random words then a 30-word StoreRange of
		// one repeated word, across the first bitmap page boundary.
		const base, nRange, nFill = mem.Addr((pageWords - 60) * mem.Word), 100, 30
		const fill = uint64(0xA5A5_5A5A_0F0F_F0F0)
		want := make([]byte, (nRange+nFill)*mem.Word)
		rand.New(rand.NewSource(4)).Read(want[:nRange*mem.Word])
		fillWords(want[nRange*mem.Word:], fill)
		if st := be.StoreRange(base, want[:nRange*mem.Word]); st != OK {
			t.Fatal(st)
		}
		if st := be.StoreRange(base+nRange*mem.Word, want[nRange*mem.Word:]); st != OK {
			t.Fatal(st)
		}
		// The whole span, and a piece from inside it.
		for _, span := range [][2]int{{0, nRange + nFill}, {70, 50}} {
			got := make([]byte, span[1]*mem.Word)
			if st := be.LoadRange(base+mem.Addr(span[0]*mem.Word), got); st != OK {
				t.Fatal(st)
			}
			if !bytes.Equal(got, want[span[0]*mem.Word:][:len(got)]) {
				t.Fatalf("span %v: loaded bytes are not the stored ones", span)
			}
		}
		if be.ReadSetSize() != 0 {
			t.Fatalf("own-write loads put %d words in the read set", be.ReadSetSize())
		}
		for w := 0; w < nRange+nFill; w++ {
			p := base + mem.Addr(w*mem.Word)
			arena.WriteWord(p, ^arena.ReadWord(p))
		}
		if !be.Validate() {
			t.Fatal("validation failed although nothing was read from memory")
		}
	})
}

// TestLoadRangeStraddleMatchesWordLoop: one range load over words the
// speculation has stored whole, stored in part, already read and never
// touched equals the word-at-a-time loop in bytes, sets and counters.
func TestLoadRangeStraddleMatchesWordLoop(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		arenaBulk := newSeededArena(t, rand.New(rand.NewSource(5)))
		arenaRef := cloneArena(t, arenaBulk)
		bulk, err := NewBackend(arenaBulk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewBackend(arenaRef, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Word 64 of the window is the first word of the second bitmap page.
		at := func(word int) mem.Addr { return mem.Addr((pageWords - 64 + word) * mem.Word) }
		src := make([]byte, 20*mem.Word)
		rand.New(rand.NewSource(6)).Read(src)
		fill := fillWords(make([]byte, 10*mem.Word), 0x1234)
		for _, be := range []Backend{bulk, ref} {
			be.StoreRange(at(10), src)      // words 10..29 stored whole
			be.Store(at(35)+2, 2, 0xBEEF)   // word 35: two bytes marked
			be.Store(at(36), 4, 0xDEADBEEF) // word 36: the low half marked
			be.Load(at(40), mem.Word)       // word 40 already snapshotted
			be.StoreRange(at(60), fill)     // words 60..69, over the page border
			be.Store(at(62)+7, 1, 0x77)     // a sub-word store onto a full word
		}
		// {first word, words}: all of it; stored only; untouched only; the
		// partial words with neighbours; read and stored across the border.
		for _, span := range [][2]int{{5, 70}, {10, 20}, {30, 5}, {34, 4}, {38, 30}, {5, 70}} {
			d1 := make([]byte, span[1]*mem.Word)
			d2 := make([]byte, span[1]*mem.Word)
			s1 := bulk.LoadRange(at(span[0]), d1)
			s2 := refLoadRange(ref, at(span[0]), d2)
			if s1 != s2 || !bytes.Equal(d1, d2) {
				t.Fatalf("span %v: range (%v, %x)\n word loop (%v, %x)", span, s1, d1, s2, d2)
			}
			sameSets(t, bulk, ref, fmt.Sprintf("after span %v", span))
		}
		// Word 31 was read from memory (span {30, 5}): changing it must fail
		// both validations.
		arenaBulk.WriteWord(at(31), ^arenaBulk.ReadWord(at(31)))
		arenaRef.WriteWord(at(31), ^arenaRef.ReadWord(at(31)))
		if bulk.Validate() || ref.Validate() {
			t.Fatal("a changed read word went unnoticed")
		}
	})
}
