package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gbuf"
	"repro/internal/mem"
)

// typedPair is one typed slice view (a bulk load and store) beside the
// scalar accessors of its element type, with elements carried as their
// bits so one table covers every element type.
type typedPair struct {
	name        string
	size        int
	load        func(c *Thread, p mem.Addr, n int) []uint64
	store       func(c *Thread, p mem.Addr, v []uint64)
	loadScalar  func(c *Thread, p mem.Addr) uint64
	storeScalar func(c *Thread, p mem.Addr, v uint64)
}

func pairOf[E elem](name string,
	load, store func(*Thread, mem.Addr, []E),
	loadOne func(*Thread, mem.Addr) E, storeOne func(*Thread, mem.Addr, E),
	bits func(E) uint64, fromBits func(uint64) E,
) typedPair {
	var zero E
	return typedPair{
		name: name,
		size: int(unsafe.Sizeof(zero)),
		load: func(c *Thread, p mem.Addr, n int) []uint64 {
			dst := make([]E, n)
			load(c, p, dst)
			out := make([]uint64, n)
			for i, v := range dst {
				out[i] = bits(v)
			}
			return out
		},
		store: func(c *Thread, p mem.Addr, v []uint64) {
			src := make([]E, len(v))
			for i, b := range v {
				src[i] = fromBits(b)
			}
			store(c, p, src)
		},
		loadScalar:  func(c *Thread, p mem.Addr) uint64 { return bits(loadOne(c, p)) },
		storeScalar: func(c *Thread, p mem.Addr, v uint64) { storeOne(c, p, fromBits(v)) },
	}
}

// typedPairs is every typed slice view the Thread offers.
var typedPairs = []typedPair{
	pairOf("Words", (*Thread).LoadWords, (*Thread).StoreWords,
		func(c *Thread, p mem.Addr) uint64 { return uint64(c.LoadInt64(p)) },
		func(c *Thread, p mem.Addr, v uint64) { c.StoreInt64(p, int64(v)) },
		func(v uint64) uint64 { return v }, func(b uint64) uint64 { return b }),
	pairOf("Int64s", (*Thread).LoadInt64s, (*Thread).StoreInt64s,
		(*Thread).LoadInt64, (*Thread).StoreInt64,
		func(v int64) uint64 { return uint64(v) }, func(b uint64) int64 { return int64(b) }),
	pairOf("Float64s", (*Thread).LoadFloat64s, (*Thread).StoreFloat64s,
		(*Thread).LoadFloat64, (*Thread).StoreFloat64,
		math.Float64bits, math.Float64frombits),
	pairOf("Int32s", (*Thread).LoadInt32s, (*Thread).StoreInt32s,
		(*Thread).LoadInt32, (*Thread).StoreInt32,
		func(v int32) uint64 { return uint64(uint32(v)) }, func(b uint64) int32 { return int32(uint32(b)) }),
	pairOf("Float32s", (*Thread).LoadFloat32s, (*Thread).StoreFloat32s,
		(*Thread).LoadFloat32, (*Thread).StoreFloat32,
		func(v float32) uint64 { return uint64(math.Float32bits(v)) },
		func(b uint64) float32 { return math.Float32frombits(uint32(b)) }),
}

// viewCase is a run of n elements at an offset from a word-aligned base:
// offset4 for 4-byte elements, offset8 for words.
type viewCase struct {
	name             string
	n                int
	offset4, offset8 mem.Addr
}

// pageBytes is the bitmap page and the write-stamp page: a run starting
// offset bytes before a multiple of it straddles a page border (word 512).
const pageBytes = mem.StampPageBytes

var viewCases = []viewCase{
	{"empty", 0, 4, 0},
	{"one", 1, 4, 0},
	{"37-from-4-odd", 37, 4, 0},
	{"straddle-word-512", 13, pageBytes - 20, pageBytes - 40},
}

// elemBits returns the bits of element i of a run, built from bytes in
// 0x10..0x6f so that no float pattern is a NaN.
func elemBits(i, size int, salt byte) uint64 {
	var v uint64
	for k := 0; k < size; k++ {
		v |= uint64(0x10+(byte(i*7+k*13)^salt)%0x60) << (8 * k)
	}
	return v
}

// viewRun runs one case on a fresh runtime: the arena is filled with a
// background pattern, then one thread (rank 0, or one speculation the
// parent joins) loads the run, stores new values over it and loads it
// back, through the typed view or through the scalar accessors. It
// returns the two loads and the committed arena bytes.
func viewRun(t *testing.T, pr typedPair, vc viewCase, backend string, speculative, bulk bool) (first, second []uint64, arena []byte) {
	t.Helper()
	rt := newRT(t, 1, func(o *Options) { o.GBuf = gbuf.Config{Backend: backend} })
	const span = 3 * pageBytes
	arena = make([]byte, span)
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(span + 2*pageBytes)
		area := (p + pageBytes - 1) &^ (pageBytes - 1) // page-aligned
		for i := 0; i < span; i += mem.Word {
			rt.space.Arena.WriteWord(area+mem.Addr(i), elemBits(i, mem.Word, 0x5a))
		}
		base := area + pageBytes + vc.offset8
		if pr.size == 4 {
			base = area + pageBytes + vc.offset4
		}
		vals := make([]uint64, vc.n)
		for i := range vals {
			vals[i] = elemBits(i, pr.size, 0xa5)
		}
		body := func(c *Thread) {
			if bulk {
				first = pr.load(c, base, vc.n)
				pr.store(c, base, vals)
				second = pr.load(c, base, vc.n)
				return
			}
			first, second = make([]uint64, vc.n), make([]uint64, vc.n)
			for i := range first {
				first[i] = pr.loadScalar(c, base+mem.Addr(i*pr.size))
			}
			for i, v := range vals {
				pr.storeScalar(c, base+mem.Addr(i*pr.size), v)
			}
			for i := range second {
				second[i] = pr.loadScalar(c, base+mem.Addr(i*pr.size))
			}
		}
		if speculative {
			speculate(t, t0, body)
		} else {
			body(t0)
		}
		rt.space.Arena.ReadWords(area, arena)
	})
	return first, second, arena
}

// TestTypedViewsMatchScalarAccessors: every typed slice view, on the
// non-speculative thread and on a speculative one under every backend,
// reads and commits exactly what the scalar accessors of its element type
// do — for an empty run, one element, 37 elements from a 4-aligned but not
// 8-aligned base (a head, word runs and a tail for 4-byte elements) and a
// run straddling a page border.
func TestTypedViewsMatchScalarAccessors(t *testing.T) {
	for _, pr := range typedPairs {
		for _, speculative := range []bool{false, true} {
			for _, backend := range gbuf.Backends() {
				for _, vc := range viewCases {
					name := fmt.Sprintf("%s/spec=%v/%s/%s", pr.name, speculative, backend, vc.name)
					t.Run(name, func(t *testing.T) {
						bFirst, bSecond, bArena := viewRun(t, pr, vc, backend, speculative, true)
						sFirst, sSecond, sArena := viewRun(t, pr, vc, backend, speculative, false)
						if !slices.Equal(bFirst, sFirst) {
							t.Fatalf("first load: view %#x, scalar %#x", bFirst, sFirst)
						}
						if !slices.Equal(bSecond, sSecond) {
							t.Fatalf("read-back: view %#x, scalar %#x", bSecond, sSecond)
						}
						if string(bArena) != string(sArena) {
							t.Fatal("the view and the scalar accessors committed different arena bytes")
						}
					})
				}
			}
		}
	}
}

// speculate runs region as one speculation forked from t0 and fails the
// test unless it commits.
func speculate(t *testing.T, t0 *Thread, region func(c *Thread)) {
	t.Helper()
	ranks := []Rank{0}
	h := t0.Fork(ranks, 0, OutOfOrder)
	if h == nil {
		t.Fatal("fork refused")
	}
	h.Start(func(c *Thread) uint32 { region(c); return 0 })
	if res := t0.Join(ranks, 0); !res.Committed() {
		t.Fatalf("join: %v (%v)", res.Status, res.Reason)
	}
}
