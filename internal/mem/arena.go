// Package mem implements the simulated address space MUTLS buffers against.
//
// The paper's runtime hashes raw process addresses into its GlobalBuffer and
// registers the address space of every static and heap object so that
// speculative accesses to invalid addresses can be detected and rolled back
// (paper §IV-G1). Go's garbage collector hides raw pointers, so this package
// provides the closest equivalent substrate: a flat word-array arena with
// stable integer addresses, a first-fit allocator with coalescing, and a
// copy-on-write interval registry of valid "global" (static + heap +
// non-speculative stack) ranges.
//
// Arena concurrency model: software TLS reads shared memory racily by
// design — speculative threads snapshot words that the non-speculative
// thread may be writing, and validation (not synchronization) provides
// safety. Direct arena *writes* are serialized by the TLS protocol itself:
// only the non-speculative thread stores directly, and a speculative
// write-set commits only inside a join handshake while the non-speculative
// thread spins. The arena therefore stores data as words accessed with
// sync/atomic loads and stores: concurrent readers observe tear-free values
// (possibly stale, which validation detects) without violating the Go
// memory model. The one exception is a commit nobody can observe until it
// is published (CommitWords with no stamps).
package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Word is the buffering granularity in bytes, matching the paper's WORD size
// on the 64-bit evaluation machine.
const Word = 8

// Addr is an address in the simulated address space. Address 0 is reserved
// as the nil address and is never valid.
type Addr uint64

// NilAddr is the invalid zero address.
const NilAddr Addr = 0

// Arena is a flat simulated memory. Non-speculative code reads and writes it
// directly; speculative threads only observe it through a GlobalBuffer.
type Arena struct {
	words []uint64
	size  int
}

// NewArena creates an arena of the given size in bytes (rounded up to whole
// words). The first Word bytes are reserved so that no object is ever placed
// at address 0.
func NewArena(size int) (*Arena, error) {
	if size < 4*Word {
		return nil, fmt.Errorf("mem: arena size %d too small", size)
	}
	nWords := (size + Word - 1) / Word
	return &Arena{words: make([]uint64, nWords), size: nWords * Word}, nil
}

// Size returns the arena size in bytes.
func (a *Arena) Size() int { return a.size }

// InBounds reports whether [p, p+n) lies inside the arena and does not wrap.
func (a *Arena) InBounds(p Addr, n int) bool {
	if p == NilAddr || n < 0 {
		return false
	}
	end := uint64(p) + uint64(n)
	return end >= uint64(p) && end <= uint64(a.size)
}

func (a *Arena) check(p Addr, n int) {
	if !a.InBounds(p, n) {
		panic(fmt.Sprintf("mem: out-of-bounds access [%d,%d)", p, uint64(p)+uint64(n)))
	}
}

// ReadWord returns the 8-byte word at the word-aligned address p.
func (a *Arena) ReadWord(p Addr) uint64 {
	a.check(p, Word)
	if p&(Word-1) != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %d", p))
	}
	return atomic.LoadUint64(&a.words[p>>3])
}

// WriteWord stores an 8-byte word at the word-aligned address p.
func (a *Arena) WriteWord(p Addr, v uint64) {
	a.check(p, Word)
	if p&(Word-1) != 0 {
		panic(fmt.Sprintf("mem: unaligned word write at %d", p))
	}
	atomic.StoreUint64(&a.words[p>>3], v)
}

// readSub returns n bytes (n ≤ Word, not crossing a word boundary) at p.
func (a *Arena) readSub(p Addr, n int) uint64 {
	a.check(p, n)
	w := atomic.LoadUint64(&a.words[p>>3])
	shift := uint(p&(Word-1)) * 8
	if n == Word {
		return w
	}
	mask := uint64(1)<<(uint(n)*8) - 1
	return (w >> shift) & mask
}

// writeSub writes the low n bytes of v (n ≤ Word, not crossing a word
// boundary) at p via a read-modify-write on the containing word. Direct
// writers are serialized by the TLS protocol, so the RMW cannot lose
// concurrent updates.
func (a *Arena) writeSub(p Addr, n int, v uint64) {
	a.check(p, n)
	if n == Word {
		atomic.StoreUint64(&a.words[p>>3], v)
		return
	}
	shift := uint(p&(Word-1)) * 8
	mask := (uint64(1)<<(uint(n)*8) - 1) << shift
	w := atomic.LoadUint64(&a.words[p>>3])
	w = (w &^ mask) | ((v << shift) & mask)
	atomic.StoreUint64(&a.words[p>>3], w)
}

// ReadUint8 returns the byte at p.
func (a *Arena) ReadUint8(p Addr) uint8 { return uint8(a.readSub(p, 1)) }

// WriteUint8 stores a byte at p.
func (a *Arena) WriteUint8(p Addr, v uint8) { a.writeSub(p, 1, uint64(v)) }

// ReadUint16 returns the 2-byte value at the 2-aligned address p.
func (a *Arena) ReadUint16(p Addr) uint16 { return uint16(a.readSub(p, 2)) }

// WriteUint16 stores a 2-byte value at p.
func (a *Arena) WriteUint16(p Addr, v uint16) { a.writeSub(p, 2, uint64(v)) }

// ReadUint32 returns the 4-byte value at the 4-aligned address p.
func (a *Arena) ReadUint32(p Addr) uint32 { return uint32(a.readSub(p, 4)) }

// WriteUint32 stores a 4-byte value at p.
func (a *Arena) WriteUint32(p Addr, v uint32) { a.writeSub(p, 4, uint64(v)) }

// ReadInt64 returns the 8-byte signed value at p.
func (a *Arena) ReadInt64(p Addr) int64 { return int64(a.ReadWord(p)) }

// ReadWords copies len(dst)/Word consecutive words starting at the
// word-aligned address p into dst as little-endian bytes. It is the bulk
// read under the GlobalBuffer range paths: one bounds check for the whole
// run, per-word atomic loads (the same tear-free guarantee as ReadWord,
// word by word — the run as a whole is not atomic, which is fine because
// validation, not synchronization, provides safety).
func (a *Arena) ReadWords(p Addr, dst []byte) {
	a.checkRun(p, len(dst))
	w := a.words[p>>3 : int(p>>3)+len(dst)/Word]
	for i := range w {
		binary.LittleEndian.PutUint64(dst[:Word], atomic.LoadUint64(&w[i]))
		dst = dst[Word:]
	}
}

// WriteWords stores len(src)/Word consecutive words of little-endian bytes
// at the word-aligned address p. Direct writers are serialized by the TLS
// protocol (commit happens inside the join handshake), so per-word atomic
// stores suffice.
func (a *Arena) WriteWords(p Addr, src []byte) {
	a.checkRun(p, len(src))
	w := a.words[p>>3 : int(p>>3)+len(src)/Word]
	for i := range w {
		atomic.StoreUint64(&w[i], binary.LittleEndian.Uint64(src[:Word]))
		src = src[Word:]
	}
}

// CommitWords is the one way a speculative write set reaches the arena: it
// stores the len(src)/Word little-endian words of src at the word-aligned
// address p, then stamps their pages with one Mark. stamps is nil when
// nobody can read the arena until an atomic store publishes the commit
// (core's commitStamps): the run is then one plain copy of its bytes — on a
// little-endian host, the only kind this package builds for (bigendian.go),
// src is already the words' memory image — and nothing is stamped.
func (a *Arena) CommitWords(p Addr, src []byte, stamps *WriteStamps) {
	if stamps != nil {
		a.WriteWords(p, src)
		stamps.Mark(p, len(src))
		return
	}
	a.checkRun(p, len(src))
	w := a.words[p>>3 : int(p>>3)+len(src)/Word]
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(src)), src)
}

// EqualWords reports whether the len(data)/Word words at the word-aligned
// address p equal the little-endian words of data — the bulk comparison
// behind range-aware read-set validation walks.
func (a *Arena) EqualWords(p Addr, data []byte) bool {
	a.checkRun(p, len(data))
	w := a.words[p>>3 : int(p>>3)+len(data)/Word]
	for i := range w {
		if atomic.LoadUint64(&w[i]) != binary.LittleEndian.Uint64(data[:Word]) {
			return false
		}
		data = data[Word:]
	}
	return true
}

// checkRun validates a word-run access: in bounds, word-aligned, whole
// words.
func (a *Arena) checkRun(p Addr, n int) {
	a.check(p, n)
	if p&(Word-1) != 0 || n%Word != 0 {
		panic(fmt.Sprintf("mem: misaligned word-run access [%d,+%d)", p, n))
	}
}

// FillWords stores the word v into nWords consecutive words starting at the
// word-aligned address p — the arena's memset intrinsic. One bounds check
// for the whole run, then a range fill of per-word atomic stores (the same
// tear-free contract as WriteWord, without the per-word call, check and
// byte-encoding overhead of the generic paths).
func (a *Arena) FillWords(p Addr, nWords int, v uint64) {
	if nWords < 0 {
		panic(fmt.Sprintf("mem: negative fill length %d", nWords))
	}
	a.checkRun(p, nWords*Word)
	w := a.words[p>>3 : int(p>>3)+nWords]
	for i := range w {
		atomic.StoreUint64(&w[i], v)
	}
}

// ZeroWords clears nWords consecutive words at the word-aligned address p
// (FillWords with zero — the allocator-zeroing fast path).
func (a *Arena) ZeroWords(p Addr, nWords int) { a.FillWords(p, nWords, 0) }

// splitRun decomposes a byte span at p into a sub-word head up to the next
// word boundary, a run of whole words and a sub-word tail.
func splitRun(p Addr, n int) (head, nWords, tail int) {
	if off := WordOffset(p); off != 0 {
		head = Word - off
		if head > n {
			head = n
		}
		n -= head
	}
	return head, n / Word, n % Word
}

// Snapshot copies n bytes starting at p into a fresh slice: sub-word head
// and tail, one bulk word read for the aligned middle.
func (a *Arena) Snapshot(p Addr, n int) []byte {
	a.check(p, n)
	out := make([]byte, n)
	head, nWords, tail := splitRun(p, n)
	if head > 0 {
		putLEBytes(out[:head], a.readSub(p, head))
		p += Addr(head)
	}
	if nWords > 0 {
		a.ReadWords(p, out[head:head+nWords*Word])
		p += Addr(nWords * Word)
	}
	if tail > 0 {
		putLEBytes(out[n-tail:], a.readSub(p, tail))
	}
	return out
}

// Zero clears n bytes starting at p: sub-word head and tail, ZeroWords for
// the aligned middle.
func (a *Arena) Zero(p Addr, n int) {
	a.check(p, n)
	head, nWords, tail := splitRun(p, n)
	if head > 0 {
		a.writeSub(p, head, 0)
		p += Addr(head)
	}
	if nWords > 0 {
		a.ZeroWords(p, nWords)
		p += Addr(nWords * Word)
	}
	if tail > 0 {
		a.writeSub(p, tail, 0)
	}
}

// putLEBytes spreads the low len(b) bytes of v into b, little-endian.
func putLEBytes(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// Aligned reports whether p is aligned to size bytes. The paper supports
// accesses whose size and WORD divide one another, with p aligned by size.
func Aligned(p Addr, size int) bool {
	if size <= 0 {
		return false
	}
	return uint64(p)%uint64(size) == 0
}

// WordBase returns p with its low Word bits cleared — the paper's
// "normalized address" np used for sub-word accesses.
func WordBase(p Addr) Addr { return p &^ (Word - 1) }

// WordOffset returns the byte offset of p inside its word.
func WordOffset(p Addr) int { return int(p & (Word - 1)) }
