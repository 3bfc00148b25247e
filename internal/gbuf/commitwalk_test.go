package gbuf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// The tests in this file pin the batched validate+commit walk to the
// word-at-a-time reference it replaced: same verdicts, same arena contents,
// same counters, same set peaks — only fewer, larger arena operations.

// bufferedWord is one extracted (base, data, marks) tuple of a set.
type bufferedWord struct {
	base mem.Addr
	data [mem.Word]byte
	mark [mem.Word]byte
}

// setWords extracts a backend's read or write set as one slice of words,
// reaching into each organization's internals (same-package test).
func setWords(t testing.TB, be Backend, write bool) []bufferedWord {
	t.Helper()
	var out []bufferedWord
	add := func(base mem.Addr, data, marks []byte) {
		w := bufferedWord{base: base}
		copy(w.data[:], data)
		if marks != nil {
			copy(w.mark[:], marks)
		}
		out = append(out, w)
	}
	switch v := be.(type) {
	case *Buffer:
		m := &v.read
		ov := v.readOv
		if write {
			m = &v.write
			ov = v.writeOv
		}
		for k := 0; k < m.top; k++ {
			i := int(m.used[k])
			var marks []byte
			if m.mark != nil {
				marks = m.markWord(i)
			}
			add(m.addrs[i], m.word(i), marks)
		}
		for k := range ov {
			add(ov[k].base, ov[k].data[:], ov[k].mark[:])
		}
	case *chainBuffer:
		s := &v.read
		if write {
			s = &v.write
		}
		for i := range s.entries {
			add(s.entries[i].base, s.entries[i].data[:], s.entries[i].mark[:])
		}
	case *bitmapBuffer:
		s := &v.read
		if write {
			s = &v.write
		}
		bitmapWords(s, func(base mem.Addr, data, marks []byte) bool {
			add(base, data, marks)
			return true
		})
	default:
		t.Fatalf("setWords: unknown backend %T", be)
	}
	return out
}

// bitmapWords visits every buffered word of a bitmap set, page by page in
// touch order and slot by slot, as (base, data, marks) — marks nil for the
// read set. It tests each presence bit on its own, so it shares no run
// logic with the walks it is the reference for.
func bitmapWords(s *bitmapSet, fn func(base mem.Addr, data, marks []byte) bool) bool {
	for _, pg := range s.order {
		for slot := 0; slot < pageWords; slot++ {
			if pg.present[slot/64]&(1<<uint(slot%64)) == 0 {
				continue
			}
			off := slot * mem.Word
			var marks []byte
			if pg.mark != nil {
				marks = pg.mark[off : off+mem.Word]
			}
			base := mem.Addr(pg.pageIdx*pageWords*mem.Word + uint64(off))
			if !fn(base, pg.data[off:off+mem.Word], marks) {
				return false
			}
		}
	}
	return true
}

// refValidate is the pre-batching word-at-a-time read-set check.
func refValidate(arena *mem.Arena, reads []bufferedWord) bool {
	for i := range reads {
		if binary.LittleEndian.Uint64(reads[i].data[:]) != arena.ReadWord(reads[i].base) {
			return false
		}
	}
	return true
}

// refCommit is the pre-batching word-at-a-time write-set copyback.
func refCommit(arena *mem.Arena, c *Counters, writes []bufferedWord, stamps *mem.WriteStamps) {
	for i := range writes {
		w := &writes[i]
		commitWord(arena, c, w.base, w.data[:], w.mark[:], stamps)
	}
}

// refValidateWalk is the word-at-a-time validation as the pre-batching code
// ran it: traversing the live set organization, one arena word per step.
func refValidateWalk(be Backend, arena *mem.Arena) bool {
	switch v := be.(type) {
	case *Buffer:
		r := &v.read
		for k := 0; k < r.top; k++ {
			i := int(r.used[k])
			if binary.LittleEndian.Uint64(r.word(i)) != arena.ReadWord(r.addrs[i]) {
				return false
			}
		}
		for k := range v.readOv {
			e := &v.readOv[k]
			if binary.LittleEndian.Uint64(e.data[:]) != arena.ReadWord(e.base) {
				return false
			}
		}
	case *chainBuffer:
		for i := range v.read.entries {
			e := &v.read.entries[i]
			if binary.LittleEndian.Uint64(e.data[:]) != arena.ReadWord(e.base) {
				return false
			}
		}
	case *bitmapBuffer:
		return bitmapWords(&v.read, func(base mem.Addr, data, _ []byte) bool {
			return binary.LittleEndian.Uint64(data) == arena.ReadWord(base)
		})
	}
	return true
}

// refCommitWalk is the word-at-a-time copyback as the pre-batching code ran
// it: traversing the live set organization, one commitWord per buffered
// word.
func refCommitWalk(be Backend, arena *mem.Arena, c *Counters) {
	switch v := be.(type) {
	case *Buffer:
		w := &v.write
		for k := 0; k < w.top; k++ {
			i := int(w.used[k])
			commitWord(arena, c, w.addrs[i], w.word(i), w.markWord(i), nil)
		}
		for k := range v.writeOv {
			e := &v.writeOv[k]
			commitWord(arena, c, e.base, e.data[:], e.mark[:], nil)
		}
	case *chainBuffer:
		for i := range v.write.entries {
			e := &v.write.entries[i]
			commitWord(arena, c, e.base, e.data[:], e.mark[:], nil)
		}
	case *bitmapBuffer:
		bitmapWords(&v.write, func(base mem.Addr, data, marks []byte) bool {
			commitWord(arena, c, base, data, marks, nil)
			return true
		})
	}
}

// cloneArena duplicates an arena's contents (skipping the reserved nil word).
func cloneArena(t testing.TB, a *mem.Arena) *mem.Arena {
	t.Helper()
	b, err := mem.NewArena(a.Size())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteWords(mem.Addr(mem.Word), a.Snapshot(mem.Addr(mem.Word), a.Size()-mem.Word))
	return b
}

func sameArenas(t *testing.T, got, want *mem.Arena, what string) {
	t.Helper()
	for p := mem.Word; p < got.Size(); p += mem.Word {
		g, w := got.ReadWord(mem.Addr(p)), want.ReadWord(mem.Addr(p))
		if g != w {
			t.Fatalf("%s: arena word at %d = %#x, want %#x", what, p, g, w)
		}
	}
}

// randomOps drives a backend with a mixed access pattern and returns whether
// any op reported Full (the caller skips comparisons after a rollback).
// Words 1..900 straddle the first bitmap page boundary, at word 512.
func randomOps(rng *rand.Rand, arena *mem.Arena, be Backend, nOps int) bool {
	scratch := make([]byte, 32*mem.Word)
	for op := 0; op < nOps; op++ {
		p := mem.Addr(mem.Word * (1 + rng.Intn(900)))
		switch rng.Intn(6) {
		case 0:
			size := 1 << uint(rng.Intn(4))
			off := rng.Intn(mem.Word/size) * size
			if be.Store(p+mem.Addr(off), size, rng.Uint64()) == Full {
				return true
			}
		case 1:
			n := (1 + rng.Intn(32)) * mem.Word
			rng.Read(scratch[:n])
			if be.StoreRange(p, scratch[:n]) == Full {
				return true
			}
		case 2:
			n := (1 + rng.Intn(32)) * mem.Word
			if be.StoreRange(p, fillWords(scratch[:n], rng.Uint64())) == Full {
				return true
			}
		case 3:
			size := 1 << uint(rng.Intn(4))
			off := rng.Intn(mem.Word/size) * size
			if _, st := be.Load(p+mem.Addr(off), size); st == Full {
				return true
			}
		case 4:
			n := (1 + rng.Intn(32)) * mem.Word
			if be.LoadRange(p, scratch[:n]) == Full {
				return true
			}
		case 5:
			// Non-speculative interference before the thread ever read the
			// word is invisible to validation: only touch virgin addresses.
			arena.WriteWord(mem.Addr(mem.Word*(901+rng.Intn(100))), rng.Uint64())
		}
	}
	return false
}

// TestBatchedCommitMatchesWordWalk: for every backend, the batched
// validate+commit walk produces the same verdict, the same final arena, the
// same counters and the same stamped pages as the word-at-a-time reference
// on the same sets. Two inputs: mixed word and range accesses with
// non-speculative interference on a two-page arena; and write sets of long
// runs crossing 64-slot and page borders over stampTestPages pages, every
// other one with sub-word stores on top. Half of each input's trials commit
// stamped.
func TestBatchedCommitMatchesWordWalk(t *testing.T) {
	src := make([]byte, 300*mem.Word)
	inputs := []struct {
		name   string
		seed   int64
		trials int
		pages  int
		// fill drives the backend and reports whether an op reported Full
		// (the trial is skipped after a rollback).
		fill func(rng *rand.Rand, arena *mem.Arena, be Backend, trial int) bool
	}{
		{"mixed", 7, 40, 2, func(rng *rand.Rand, arena *mem.Arena, be Backend, _ int) bool {
			return randomOps(rng, arena, be, 60)
		}},
		{"page-crossing runs", 5, 60, stampTestPages, func(rng *rand.Rand, _ *mem.Arena, be Backend, trial int) bool {
			const words = stampTestPages * pageWords
			for op := 0; op < 12; op++ {
				w := pageWords + rng.Intn(words-pageWords-300)
				n := (1 + rng.Intn(300)) * mem.Word
				rng.Read(src[:n])
				if be.StoreRange(mem.Addr(w*mem.Word), src[:n]) == Full {
					return true
				}
				if trial%2 == 1 {
					size := 1 << uint(rng.Intn(3))
					p := mem.Addr(w*mem.Word + rng.Intn(n/size)*size)
					if be.Store(p, size, rng.Uint64()) == Full {
						return true
					}
				}
			}
			return false
		}},
	}
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(in.seed))
					for trial := 0; trial < in.trials; trial++ {
						arena, _ := mem.NewArena(in.pages * pageBytes)
						for p := mem.Word; p < arena.Size(); p += mem.Word {
							arena.WriteWord(mem.Addr(p), rng.Uint64())
						}
						be, err := NewBackend(arena, Config{Backend: name, LogWords: 12}.WithDefaults())
						if err != nil {
							t.Fatal(err)
						}
						if full := in.fill(rng, arena, be, trial); full {
							continue
						}
						reads := setWords(t, be, false)
						writes := setWords(t, be, true)
						refArena := cloneArena(t, arena)
						stamped := trial%4 >= 2
						var stamps, refStamps *mem.WriteStamps
						if stamped {
							stamps, _ = mem.NewWriteStamps(arena.Size(), 0)
							refStamps, _ = mem.NewWriteStamps(arena.Size(), 0)
						}
						what := fmt.Sprintf("trial %d (stamped %v)", trial, stamped)

						okBatched := be.Validate()
						if okRef := refValidate(refArena, reads); okBatched != okRef {
							t.Fatalf("%s: batched validate %v, reference %v", what, okBatched, okRef)
						}
						before := *be.Counters()
						var refC Counters
						be.Commit(stamps)
						refCommit(refArena, &refC, writes, refStamps)
						sameArenas(t, arena, refArena, what)
						after := *be.Counters()
						if dw := after.WordsCommitted - before.WordsCommitted; dw != refC.WordsCommitted {
							t.Fatalf("%s: WordsCommitted %d, reference %d", what, dw, refC.WordsCommitted)
						}
						if stamped {
							got, want := dirtyPages(stamps, arena.Size()), dirtyPages(refStamps, arena.Size())
							if !slices.Equal(got, want) || (len(writes) > 0) != (len(got) > 0) {
								t.Fatalf("%s: stamped pages %v, reference %v", what, got, want)
							}
						}
					}
				})
			}
		})
	}
}

// dirtyPages lists the pages of an arena stamps ever marked.
func dirtyPages(stamps *mem.WriteStamps, size int) []int {
	var out []int
	for pg := 0; pg*pageBytes < size; pg++ {
		if stamps.DirtySince(mem.Addr(pg*pageBytes), pageBytes, 0) {
			out = append(out, pg)
		}
	}
	return out
}

// fillWords writes the word v into every word of dst and returns it: a
// constant-fill source for StoreRange.
func fillWords(dst []byte, v uint64) []byte {
	for w := 0; w < len(dst); w += mem.Word {
		binary.LittleEndian.PutUint64(dst[w:], v)
	}
	return dst
}

// stampTestPages is the arena of the stamp-table tests in pages; their sets
// live on pages 1 to stampTestPages-1.
const stampTestPages = 8

// loadAcrossPages fills a backend's read set with words on every page but
// the first of a stampTestPages-page arena: ranges crossing 64-slot and
// page borders, single words and sub-word loads, some of them re-reads. It
// reports false when an openaddr load reported Full.
func loadAcrossPages(rng *rand.Rand, be Backend) bool {
	const words = stampTestPages * pageWords
	buf := make([]byte, 200*mem.Word)
	for op := 0; op < 40; op++ {
		w := pageWords + rng.Intn(words-pageWords-200)
		switch rng.Intn(3) {
		case 0:
			n := (1 + rng.Intn(200)) * mem.Word
			if be.LoadRange(mem.Addr(w*mem.Word), buf[:n]) == Full {
				return false
			}
		case 1:
			if _, st := be.Load(mem.Addr(w*mem.Word), mem.Word); st == Full {
				return false
			}
		default:
			size := 1 << uint(rng.Intn(3))
			off := rng.Intn(mem.Word/size) * size
			if _, st := be.Load(mem.Addr(w*mem.Word+off), size); st == Full {
				return false
			}
		}
	}
	return true
}

// TestValidateDirtySplit: ValidateDirty compares exactly the read-set words
// on pages stamped after its snapshot. On every backend, over read sets
// spread across seven pages, each trial stamps a random choice of pages —
// by one word of each, to show the page is the grain — and WordsValidated
// must grow by exactly the read words on those pages; a read word changed
// in the arena then fails validation when its page is stamped, and is
// trusted when it is not (the stamps are the caller's soundness burden).
// nil stamps compares every word.
func TestValidateDirtySplit(t *testing.T) {
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 30; trial++ {
				arena, _ := mem.NewArena(stampTestPages * pageBytes)
				for p := mem.Word; p < arena.Size(); p += mem.Word {
					arena.WriteWord(mem.Addr(p), rng.Uint64())
				}
				stamps, err := mem.NewWriteStamps(arena.Size(), 0)
				if err != nil {
					t.Fatal(err)
				}
				be, err := NewBackend(arena, Config{Backend: name, LogWords: 12}.WithDefaults())
				if err != nil {
					t.Fatal(err)
				}
				if !loadAcrossPages(rng, be) {
					continue
				}
				reads := setWords(t, be, false)
				perPage := make([]uint64, stampTestPages)
				for _, w := range reads {
					perPage[uint64(w.base)/pageBytes]++
				}

				c0 := *be.Counters()
				if !be.ValidateDirty(nil, 0) {
					t.Fatalf("trial %d: ValidateDirty(nil) failed on an unchanged arena", trial)
				}
				if got := be.Counters().WordsValidated - c0.WordsValidated; got != uint64(len(reads)) {
					t.Fatalf("trial %d: nil stamps compared %d words, want all %d", trial, got, len(reads))
				}

				snap := stamps.Snapshot()
				var stamped []int
				want := uint64(0)
				for pg := 1; pg < stampTestPages; pg++ {
					if rng.Intn(3) == 0 {
						stamps.Mark(mem.Addr(pg*pageBytes+rng.Intn(pageWords)*mem.Word), mem.Word)
						stamped = append(stamped, pg)
						want += perPage[pg]
					}
				}
				c0 = *be.Counters()
				if !be.ValidateDirty(stamps, snap) {
					t.Fatalf("trial %d: stamped pages %v: validation failed on an unchanged arena", trial, stamped)
				}
				c1 := *be.Counters()
				if got := c1.WordsValidated - c0.WordsValidated; got != want {
					t.Fatalf("trial %d: stamped pages %v (read words per page %v): compared %d words, want %d",
						trial, stamped, perPage, got, want)
				}
				if c1.Validations != c0.Validations+1 || c1.ValidationFail != c0.ValidationFail {
					t.Fatalf("trial %d: counters %+v -> %+v, want one passing validation", trial, c0, c1)
				}

				// Change one read word, then judge it with its page clean and
				// with its page stamped.
				w := reads[rng.Intn(len(reads))]
				arena.WriteWord(w.base, ^binary.LittleEndian.Uint64(w.data[:]))
				pg := int(uint64(w.base) / pageBytes)
				clean := stamps.Snapshot()
				for q := 1; q < stampTestPages; q++ {
					if q != pg {
						stamps.Mark(mem.Addr(q*pageBytes), mem.Word)
					}
				}
				if !be.ValidateDirty(stamps, clean) {
					t.Fatalf("trial %d: the changed word's page %d is clean, yet validation compared it", trial, pg)
				}
				dirty := stamps.Snapshot()
				stamps.Mark(mem.Addr(pg*pageBytes+rng.Intn(pageWords)*mem.Word), mem.Word)
				c0 = *be.Counters()
				if be.ValidateDirty(stamps, dirty) {
					t.Fatalf("trial %d: a changed word at %d on stamped page %d passed validation", trial, w.base, pg)
				}
				if c1 := *be.Counters(); c1.ValidationFail != c0.ValidationFail+1 || c1.WordsValidated-c0.WordsValidated > perPage[pg] {
					t.Fatalf("trial %d: failing validation counters %+v -> %+v (page %d holds %d read words)",
						trial, c0, c1, pg, perPage[pg])
				}
				if be.Validate() {
					t.Fatalf("trial %d: Validate missed the changed word", trial)
				}
			}
		})
	}
}

// BenchmarkCommitWalk prices the join serial section on two shapes: row, a
// dense 4 KiB read set and a disjoint 4 KiB write set (512 contiguous words
// each, the mandelbrot-row shape) with no page stamped; and loop-memory, the
// stencil group's 1 539 read words over four pages, one of them stamped
// since the speculation's snapshot, and 513 written words across a page
// border.
//
// The headline pair is serial-window-*: everything executed while the
// committing thread holds the join lock. The word reference is a full
// word-at-a-time validate plus a word-at-a-time copyback; the batched
// window compares only pages stamped since the speculation began, so it is
// ValidateDirty over the dirty table plus the run-spliced commit, unstamped
// as a sole committer's is. The commit-*/validate-* pairs price the two
// halves in isolation, the validations comparing every read word. The acceptance bar is ≥ 2x fewer ns/op for the
// batched serialized window.
func BenchmarkCommitWalk(b *testing.B) {
	for _, shape := range []struct {
		name                  string
		readBase, writeBase   mem.Addr
		readWords, writeWords int
		logWords              int  // openaddr's table: room for both sets
		stamped               bool // the second read page is stamped
	}{
		{"row", 1 << 12, 1 << 13, 512, 512, 10, false},
		{"loop-memory", 5*pageBytes + 256*mem.Word, 12*pageBytes - mem.Word, 1539, 513, 12, true},
	} {
		src := make([]byte, shape.writeWords*mem.Word)
		for i := range src {
			src[i] = byte(i * 7)
		}
		for _, name := range Backends() {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				arena, _ := mem.NewArena(1 << 16)
				be, err := NewBackend(arena, Config{Backend: name, LogWords: shape.logWords}.WithDefaults())
				if err != nil {
					b.Fatal(err)
				}
				if st := be.LoadRange(shape.readBase, make([]byte, shape.readWords*mem.Word)); st != OK {
					b.Fatal(st)
				}
				if st := be.StoreRange(shape.writeBase, src); st != OK {
					b.Fatal(st)
				}
				stamps, err := mem.NewWriteStamps(arena.Size(), 0)
				if err != nil {
					b.Fatal(err)
				}
				if shape.stamped {
					stamps.Mark(shape.readBase+pageBytes, mem.Word)
				}
				bytes := int64(shape.writeWords * mem.Word)
				b.Run("serial-window-batched", func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						if !be.ValidateDirty(stamps, 0) {
							b.Fatal("validation failed")
						}
						be.Commit(nil)
					}
				})
				b.Run("serial-window-word-reference", func(b *testing.B) {
					b.SetBytes(bytes)
					var c Counters
					for i := 0; i < b.N; i++ {
						if !refValidateWalk(be, arena) {
							b.Fatal("validation failed")
						}
						refCommitWalk(be, arena, &c)
					}
				})
				b.Run("commit-batched", func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						be.Commit(nil)
					}
				})
				b.Run("commit-word-reference", func(b *testing.B) {
					b.SetBytes(bytes)
					var c Counters
					for i := 0; i < b.N; i++ {
						refCommitWalk(be, arena, &c)
					}
				})
				b.Run("validate-batched", func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						if !be.Validate() {
							b.Fatal("validation failed")
						}
					}
				})
				b.Run("validate-word-reference", func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						if !refValidateWalk(be, arena) {
							b.Fatal("validation failed")
						}
					}
				})
			})
		}
	}
}

// TestNextRunIsMaximal: the run walk the bitmap's validation and commit
// share visits exactly the set bits of a page bitmap, in order, as maximal
// runs — across 64-slot borders, up to the bitmap's end — against a bit by
// bit reference over random bitmaps of runs and holes.
func TestNextRunIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bm := make([]uint64, pageWords/64)
	for trial := 0; trial < 500; trial++ {
		clear(bm)
		for bit := rng.Intn(40); bit < pageWords; bit += 1 + rng.Intn(200) {
			for end := min(bit+rng.Intn(150), pageWords); bit < end; bit++ {
				bm[bit/64] |= 1 << uint(bit%64)
			}
		}
		if trial%100 == 0 {
			for i := range bm {
				bm[i] = ^uint64(0) // one run, the whole page
			}
		}
		set := func(bit int) bool { return bit < pageWords && bm[bit/64]&(1<<uint(bit%64)) != 0 }
		var want, got [][2]int
		for bit := 0; bit < pageWords; bit++ {
			if set(bit) && (bit == 0 || !set(bit-1)) {
				n := 1
				for set(bit + n) {
					n++
				}
				want = append(want, [2]int{bit, n})
			}
		}
		for s, n := nextRun(bm, 0); n > 0; s, n = nextRun(bm, s+n) {
			got = append(got, [2]int{s, n})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: runs %v, want %v", trial, got, want)
		}
	}
}
