package gbuf

import (
	"encoding/binary"
	"slices"

	"repro/internal/mem"
)

// chainBuffer is the "chain" backend: read and write sets organized as hash
// maps with dynamically chained buckets. Unlike the paper's static
// open-addressing maps, a hash collision simply extends the bucket's chain —
// there is no overflow parking (Conflict) and no capacity exhaustion (Full),
// so speculative threads never stop or roll back because of the buffer's
// organization. The price is pointer chasing on lookups and per-entry
// growth of the entry pool; the ablation bench quantifies the trade-off.
//
// Entries live in one slice per set (indices, not pointers, chain the
// buckets), so a speculation allocates at most twice after its high-water
// mark is reached, and Finalize resets in time proportional to the touched
// buckets.
type chainBuffer struct {
	arena *mem.Arena
	read  chainSet
	write chainSet
	// anyPartial is sticky: set by the first sub-word store of the
	// speculation; while false the commit walk skips mark scanning.
	anyPartial bool
	C          Counters

	// Commit scratch, reused across speculations: entry indices in address
	// order and a staging buffer for splicing non-contiguous entries into
	// one arena run.
	commitIdx     []int32
	commitScratch []byte
}

// chainEntry is one buffered word on a bucket chain.
type chainEntry struct {
	base mem.Addr
	next int32 // next entry index on the chain, -1 = end
	data [mem.Word]byte
	mark [mem.Word]byte // write set: which bytes were written
}

// chainBuckets is the number of bucket heads of each chained set.
const chainBuckets = 1 << 12

// chainSet is one chained-bucket hash map.
type chainSet struct {
	heads   []int32 // bucket heads, -1 = empty
	touched []int32 // bucket indices in use, for proportional reset
	entries []chainEntry
}

func newChainSet() chainSet {
	s := chainSet{
		heads:   make([]int32, chainBuckets),
		touched: make([]int32, 0, chainBuckets),
	}
	for i := range s.heads {
		s.heads[i] = -1
	}
	return s
}

func (s *chainSet) bucket(base mem.Addr) int {
	return int((uint64(base) >> 3) % chainBuckets)
}

// lookup returns the entry for base, or nil.
func (s *chainSet) lookup(base mem.Addr) *chainEntry {
	for i := s.heads[s.bucket(base)]; i >= 0; i = s.entries[i].next {
		if s.entries[i].base == base {
			return &s.entries[i]
		}
	}
	return nil
}

// insert prepends a fresh entry for base to its bucket chain.
func (s *chainSet) insert(base mem.Addr) *chainEntry {
	b := s.bucket(base)
	if s.heads[b] < 0 {
		s.touched = append(s.touched, int32(b))
	}
	s.entries = append(s.entries, chainEntry{base: base, next: s.heads[b]})
	s.heads[b] = int32(len(s.entries) - 1)
	return &s.entries[len(s.entries)-1]
}

// reset clears exactly the touched buckets and drops all entries.
func (s *chainSet) reset() {
	for _, b := range s.touched {
		s.heads[b] = -1
	}
	s.touched = s.touched[:0]
	s.entries = s.entries[:0]
}

// newChainBackend builds the backend; it has nothing to size.
func newChainBackend(arena *mem.Arena, _ Config) (Backend, error) {
	return &chainBuffer{
		arena: arena,
		read:  newChainSet(),
		write: newChainSet(),
	}, nil
}

// MustStop always reports false: chains never park an access.
func (b *chainBuffer) MustStop() bool { return false }

// ReadSetSize returns the number of buffered read words.
func (b *chainBuffer) ReadSetSize() int { return len(b.read.entries) }

// WriteSetSize returns the number of buffered written words.
func (b *chainBuffer) WriteSetSize() int { return len(b.write.entries) }

// Counters exposes the accumulated activity counters.
func (b *chainBuffer) Counters() *Counters { return &b.C }

// readWordEntry returns the read-set snapshot word for base, creating it
// from the arena on first touch.
func (b *chainBuffer) readWordEntry(base mem.Addr) []byte {
	if e := b.read.lookup(base); e != nil {
		return e.data[:]
	}
	e := b.read.insert(base)
	binary.LittleEndian.PutUint64(e.data[:], b.arena.ReadWord(base))
	return e.data[:]
}

// Load mirrors the openaddr read path without any conflict outcome.
func (b *chainBuffer) Load(p mem.Addr, size int) (uint64, Status) {
	if !validSize(size) || !mem.Aligned(p, size) {
		return 0, Misaligned
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	var wData, wMarks []byte
	if e := b.write.lookup(base); e != nil {
		wData, wMarks = e.data[:], e.mark[:]
	}
	if wData != nil && allMarked(wMarks[off:off+size]) {
		return readLE(wData[off : off+size]), OK
	}
	rWord := b.readWordEntry(base)
	return mergeLoad(rWord, wData, wMarks, off, size), OK
}

// Store mirrors the openaddr write path without any conflict outcome.
func (b *chainBuffer) Store(p mem.Addr, size int, v uint64) Status {
	if !validSize(size) || !mem.Aligned(p, size) {
		return Misaligned
	}
	if size < mem.Word {
		b.anyPartial = true
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	e := b.write.lookup(base)
	if e == nil {
		e = b.write.insert(base)
		if size < mem.Word {
			// First touch of a sub-word slot: seed with the arena word.
			binary.LittleEndian.PutUint64(e.data[:], b.arena.ReadWord(base))
		}
	}
	writeLE(e.data[off:off+size], v, size)
	for i := off; i < off+size; i++ {
		e.mark[i] = fullMark
	}
	return OK
}

// LoadRange performs a buffered read of len(dst)/WORD consecutive words at
// the word-aligned address p. The chained organization still probes one
// bucket per word — buckets are reached by hashing, not adjacency — but the
// bulk path pays the interface crossing and the arena read once for the
// whole run and bulk-appends missed snapshots to the entry pool.
func (b *chainBuffer) LoadRange(p mem.Addr, dst []byte) Status {
	nWords, ok := rangeGeometry(p, len(dst))
	if !ok {
		return Misaligned
	}
	if nWords == 0 {
		return OK
	}
	b.arena.ReadWords(p, dst)
	hasWrites := len(b.write.entries) > 0
	for k := 0; k < nWords; k++ {
		base := p + mem.Addr(k*mem.Word)
		out := dst[k*mem.Word : (k+1)*mem.Word]
		var wData, wMarks []byte
		if hasWrites {
			if e := b.write.lookup(base); e != nil {
				wData, wMarks = e.data[:], e.mark[:]
				if allMarked8(wMarks) {
					copy(out, wData)
					continue
				}
			}
		}
		if e := b.read.lookup(base); e != nil {
			copy(out, e.data[:])
		} else {
			// Snapshot the arena word already sitting in dst.
			copy(b.read.insert(base).data[:], out)
		}
		if wData != nil {
			for j := 0; j < mem.Word; j++ {
				if wMarks[j] == fullMark {
					out[j] = wData[j]
				}
			}
		}
	}
	return OK
}

// StoreRange performs a buffered write of len(src)/WORD consecutive words
// at the word-aligned address p; whole words need no arena seeding and set
// all eight marks at once.
func (b *chainBuffer) StoreRange(p mem.Addr, src []byte) Status {
	nWords, ok := rangeGeometry(p, len(src))
	if !ok {
		return Misaligned
	}
	for k := 0; k < nWords; k++ {
		base := p + mem.Addr(k*mem.Word)
		e := b.write.lookup(base)
		if e == nil {
			e = b.write.insert(base)
		}
		copy(e.data[:], src[k*mem.Word:(k+1)*mem.Word])
		binary.LittleEndian.PutUint64(e.mark[:], onesWord)
	}
	return OK
}

// Validate checks every read-set word against the arena.
func (b *chainBuffer) Validate() bool { return b.ValidateDirty(nil, 0) }

// ValidateDirty compares the read set with the arena word by word, trusting
// the words on pages stamps has not marked since snap.
func (b *chainBuffer) ValidateDirty(stamps *mem.WriteStamps, snap uint64) bool {
	b.C.Validations++
	for i := range b.read.entries {
		e := &b.read.entries[i]
		if stamps != nil && !stamps.DirtySince(e.base, mem.Word, snap) {
			continue
		}
		b.C.WordsValidated++
		if binary.LittleEndian.Uint64(e.data[:]) != b.arena.ReadWord(e.base) {
			b.C.ValidationFail++
			return false
		}
	}
	return true
}

// Commit applies the write set to the arena as address-sorted maximal runs:
// entry indices are sorted by base address, fully-marked consecutive words
// are staged into a reusable scratch buffer and spliced with one arena
// write each, and partially-marked words fall back to the marked-byte walk.
// Chained insertion order is hash order, so without the sort even a dense
// writer would commit word at a time.
func (b *chainBuffer) Commit(stamps *mem.WriteStamps) {
	n := len(b.write.entries)
	if n == 0 {
		return
	}
	idx := b.commitIdx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(x, y int32) int {
		if b.write.entries[x].base < b.write.entries[y].base {
			return -1
		}
		return 1
	})
	b.commitIdx = idx
	for k := 0; k < n; {
		e := &b.write.entries[idx[k]]
		run := 0
		for k+run < n {
			f := &b.write.entries[idx[k+run]]
			if f.base != e.base+mem.Addr(run*mem.Word) ||
				(b.anyPartial && !allMarked8(f.mark[:])) {
				break
			}
			run++
		}
		if run > 1 {
			need := run * mem.Word
			if cap(b.commitScratch) < need {
				b.commitScratch = make([]byte, need)
			}
			scratch := b.commitScratch[:need]
			for r := 0; r < run; r++ {
				copy(scratch[r*mem.Word:(r+1)*mem.Word], b.write.entries[idx[k+r]].data[:])
			}
			commitRun(b.arena, &b.C, e.base, scratch, stamps)
			k += run
			continue
		}
		commitWord(b.arena, &b.C, e.base, e.data[:], e.mark[:], stamps)
		k++
	}
}

// Finalize clears both sets in time proportional to the buckets touched.
func (b *chainBuffer) Finalize() {
	b.read.reset()
	b.write.reset()
	b.anyPartial = false
}
