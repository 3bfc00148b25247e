package gbuf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
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
		v.forEachRun(s, func(base mem.Addr, data, marks []byte) bool {
			for w := 0; w < len(data); w += mem.Word {
				var m []byte
				if marks != nil {
					m = marks[w : w+mem.Word]
				}
				add(base+mem.Addr(w), data[w:w+mem.Word], m)
			}
			return true
		})
	default:
		t.Fatalf("setWords: unknown backend %T", be)
	}
	return out
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
func refCommit(arena *mem.Arena, c *Counters, writes []bufferedWord) {
	c.Commits++
	for i := range writes {
		w := &writes[i]
		commitWord(arena, c, w.base, w.data[:], w.mark[:], nil)
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
		return v.forEachRun(&v.read, func(base mem.Addr, data, _ []byte) bool {
			for w := 0; w < len(data); w += mem.Word {
				if binary.LittleEndian.Uint64(data[w:w+mem.Word]) != arena.ReadWord(base+mem.Addr(w)) {
					return false
				}
			}
			return true
		})
	}
	return true
}

// refCommitWalk is the word-at-a-time copyback as the pre-batching code ran
// it: traversing the live set organization, one commitWord per buffered
// word.
func refCommitWalk(be Backend, arena *mem.Arena, c *Counters) {
	c.Commits++
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
		v.forEachRun(&v.write, func(base mem.Addr, data, marks []byte) bool {
			for w := 0; w < len(data); w += mem.Word {
				commitWord(arena, c, base+mem.Addr(w), data[w:w+mem.Word], marks[w:w+mem.Word], nil)
			}
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
	b.WriteBytes(mem.Addr(mem.Word), a.Snapshot(mem.Addr(mem.Word), a.Size()-mem.Word))
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

func testConfig(name string) Config {
	return Config{Backend: name, LogWords: 10}.WithDefaults()
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
// validate+commit walk produces the same verdict, the same final arena and
// the same counters as the word-at-a-time reference on the same sets.
func TestBatchedCommitMatchesWordWalk(t *testing.T) {
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 40; trial++ {
				arena, _ := mem.NewArena(1 << 13)
				for p := mem.Word; p < arena.Size(); p += mem.Word {
					arena.WriteWord(mem.Addr(p), rng.Uint64())
				}
				be, err := NewBackend(arena, testConfig(name))
				if err != nil {
					t.Fatal(err)
				}
				if full := randomOps(rng, arena, be, 60); full {
					continue
				}
				reads := setWords(t, be, false)
				writes := setWords(t, be, true)
				refArena := cloneArena(t, arena)

				okBatched := be.Validate()
				if okRef := refValidate(refArena, reads); okBatched != okRef {
					t.Fatalf("trial %d: batched validate %v, reference %v", trial, okBatched, okRef)
				}
				before := *be.Counters()
				var refC Counters
				be.Commit(nil)
				refCommit(refArena, &refC, writes)
				sameArenas(t, arena, refArena, fmt.Sprintf("trial %d", trial))
				after := *be.Counters()
				if dw := after.WordsCommitted - before.WordsCommitted; dw != refC.WordsCommitted {
					t.Fatalf("trial %d: WordsCommitted %d, reference %d", trial, dw, refC.WordsCommitted)
				}
				if db := after.BytesCommitted - before.BytesCommitted; db != refC.BytesCommitted {
					t.Fatalf("trial %d: BytesCommitted %d, reference %d", trial, db, refC.BytesCommitted)
				}
				if after.Commits-before.Commits != 1 {
					t.Fatalf("trial %d: Commits advanced by %d", trial, after.Commits-before.Commits)
				}
			}
		})
	}
}

// fillWords writes the word v into every word of dst and returns it: a
// constant-fill source for StoreRange.
func fillWords(dst []byte, v uint64) []byte {
	for w := 0; w < len(dst); w += mem.Word {
		binary.LittleEndian.PutUint64(dst[w:], v)
	}
	return dst
}

// TestValidateDirtySplit: ValidateDirty compares only the runs its oracle
// calls dirty — WordsValidated counts exactly those words — and, with a
// sound oracle, matches Validate's verdict and counters.
func TestValidateDirtySplit(t *testing.T) {
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			arena, _ := mem.NewArena(1 << 13)
			arena.WriteWord(64, 41)
			be, err := NewBackend(arena, testConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			if v, st := be.Load(64, 8); st != OK || v != 41 {
				t.Fatalf("load = %d, %v", v, st)
			}
			buf := make([]byte, 8*mem.Word)
			if st := be.LoadRange(512, buf); st != OK {
				t.Fatal(st)
			}
			// A clean oracle skips every run: nothing is compared, and the
			// validation still counts.
			c0 := *be.Counters()
			if !be.ValidateDirty(func(mem.Addr, int) bool { return false }) {
				t.Fatal("ValidateDirty(all clean) failed")
			}
			if c1 := *be.Counters(); c1.Validations != c0.Validations+1 || c1.ValidationFail != c0.ValidationFail || c1.WordsValidated != c0.WordsValidated {
				t.Fatalf("ValidateDirty(all clean) counters: %+v -> %+v", c0, c1)
			}
			// An oracle calling only the range dirty compares its 8 words.
			c0 = *be.Counters()
			if !be.ValidateDirty(func(base mem.Addr, n int) bool { return base >= 512 }) {
				t.Fatal("ValidateDirty(range dirty) failed")
			}
			if c1 := *be.Counters(); c1.WordsValidated != c0.WordsValidated+8 {
				t.Fatalf("range-dirty walk compared %d words, want 8", c1.WordsValidated-c0.WordsValidated)
			}
			// Interference: an oracle calling the conflicting word clean
			// trusts it (soundness is the oracle's burden); a sound one
			// fails exactly like a full Validate.
			arena.WriteWord(64, 99)
			if !be.ValidateDirty(func(base mem.Addr, n int) bool { return base+mem.Addr(n) <= 64 || base > 64 }) {
				t.Fatal("oracle-skipped run was re-checked anyway")
			}
			if be.ValidateDirty(func(mem.Addr, int) bool { return true }) {
				t.Fatal("ValidateDirty(all dirty) missed interference")
			}
			if be.Validate() {
				t.Fatal("Validate missed interference")
			}
			c2 := *be.Counters()
			if c2.ValidationFail != 2 || c2.Validations != 5 {
				t.Fatalf("validations %d/fail %d, want 5/2", c2.Validations, c2.ValidationFail)
			}
		})
	}
}

// BenchmarkCommitWalk prices the join serial section on a dense 4 KiB
// write set (512 contiguous words, the mandelbrot-row shape).
//
// The headline pair is serial-window-*: everything executed while the
// committing thread holds the join lock. The word reference is a full
// word-at-a-time validate plus a word-at-a-time copyback; the batched
// window compares only pages stamped since the speculation began, so it is
// ValidateDirty over a clean dirty-table plus the run-spliced commit. The
// commit-*/validate-* pairs price the two halves in isolation. The
// acceptance bar is ≥ 2x fewer ns/op for the batched serialized window.
func BenchmarkCommitWalk(b *testing.B) {
	const nWords = 512
	const readBase = mem.Addr(1 << 12)  // 4 KiB read set...
	const writeBase = mem.Addr(1 << 13) // ...and a disjoint 4 KiB write set
	src := make([]byte, nWords*mem.Word)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, name := range Backends() {
		b.Run(name, func(b *testing.B) {
			arena, _ := mem.NewArena(1 << 16)
			be, err := NewBackend(arena, testConfig(name))
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, nWords*mem.Word)
			if st := be.LoadRange(readBase, dst); st != OK {
				b.Fatal(st)
			}
			if st := be.StoreRange(writeBase, src); st != OK {
				b.Fatal(st)
			}
			allClean := func(mem.Addr, int) bool { return false }
			b.Run("serial-window-batched", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				for i := 0; i < b.N; i++ {
					if !be.ValidateDirty(allClean) {
						b.Fatal("validation failed")
					}
					be.Commit(nil)
				}
			})
			b.Run("serial-window-word-reference", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				var c Counters
				for i := 0; i < b.N; i++ {
					if !refValidateWalk(be, arena) {
						b.Fatal("validation failed")
					}
					refCommitWalk(be, arena, &c)
				}
			})
			b.Run("commit-batched", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				for i := 0; i < b.N; i++ {
					be.Commit(nil)
				}
			})
			b.Run("commit-word-reference", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				var c Counters
				for i := 0; i < b.N; i++ {
					refCommitWalk(be, arena, &c)
				}
			})
			b.Run("validate-batched", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				for i := 0; i < b.N; i++ {
					if !be.Validate() {
						b.Fatal("validation failed")
					}
				}
			})
			b.Run("validate-word-reference", func(b *testing.B) {
				b.SetBytes(nWords * mem.Word)
				for i := 0; i < b.N; i++ {
					if !refValidateWalk(be, arena) {
						b.Fatal("validation failed")
					}
				}
			})
		})
	}
}
