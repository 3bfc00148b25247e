package gbuf

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// bitmapBuffer is the "bitmap" backend, the default organization: the
// address space is divided into fixed pages of pageWords words, and each set
// keeps, per touched page, a lazily allocated shadow of the page plus a
// word-granularity presence bitmap. A lookup is one index into a flat page
// table plus a bit test, a range access is a bitmap splice and a copy per
// page, there is no hash-collision outcome at all (Conflict and Full never
// occur), validation/commit walk set bits instead of hash slots, and
// finalization touches the bitmaps only. Sparse access patterns pay for
// whole-page shadows — the ablation bench shows where the trade flips.
type bitmapBuffer struct {
	arena *mem.Arena
	read  bitmapSet
	write bitmapSet
	// anyPartial is sticky: set by the first sub-word store of the
	// speculation; while false every buffered write word is fully marked, so
	// the commit walk and own-write range loads skip mark scanning.
	anyPartial bool
	C          Counters
}

// pageBytes is the bitmap page: the arena's write-stamp page, so mem alone
// says what a page is and ValidateDirty checks one stamp per page.
// pageWords is a power of two, so splitting an address into page and slot
// is a constant shift and mask.
const (
	pageBytes = mem.StampPageBytes
	pageWords = pageBytes / mem.Word
)

// bitmapPage shadows one page of one set. present guards data and mark: a
// word's bytes mean something only while its bit is set, and every first
// touch of a word writes all eight data bytes (and, in write pages, all
// eight marks) before anything reads them — so a recycled page keeps its
// stale bytes and resetting it costs one bitmap clear.
type bitmapPage struct {
	pageIdx uint64
	present []uint64 // pageWords bits: word buffered here
	data    []byte   // pageWords * Word bytes
	mark    []byte   // write pages: byte marks, same size as data
}

// bitmapSet is one flat page table with lazy page allocation and recycling.
type bitmapSet struct {
	table []*bitmapPage // indexed by page number; nil = not touched yet
	order []*bitmapPage // touched pages, for iteration and reset
	free  []*bitmapPage // pages recycled across speculations
	words int           // total buffered words (popcount of all bitmaps)
}

// lookup returns the shadow of page pageIdx, or nil if this speculation has
// not touched it.
func (s *bitmapSet) lookup(pageIdx uint64) *bitmapPage {
	if pageIdx < uint64(len(s.table)) {
		return s.table[pageIdx]
	}
	return nil
}

// page returns the shadow page for pageIdx, allocating (or recycling) it on
// first touch. A page beyond the table lies beyond the arena: core refuses
// such addresses before they get here (InGlobal), so reaching this is a bug.
func (s *bitmapSet) page(pageIdx uint64, withMarks bool) *bitmapPage {
	if pageIdx >= uint64(len(s.table)) {
		panic(fmt.Sprintf("gbuf: bitmap access to page %d, beyond the arena's %d pages", pageIdx, len(s.table)))
	}
	pg := s.table[pageIdx]
	if pg != nil {
		return pg
	}
	if n := len(s.free); n > 0 {
		pg = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		pg = &bitmapPage{
			present: make([]uint64, pageWords/64),
			data:    make([]byte, pageWords*mem.Word),
		}
		if withMarks {
			pg.mark = make([]byte, pageWords*mem.Word)
		}
	}
	pg.pageIdx = pageIdx
	s.table[pageIdx] = pg
	s.order = append(s.order, pg)
	return pg
}

// reset recycles every touched page. Clearing the presence bitmap is all a
// page needs (see bitmapPage), so the cost is per touched page, not per
// buffered word.
func (s *bitmapSet) reset() {
	for _, pg := range s.order {
		clear(pg.present)
		s.table[pg.pageIdx] = nil
	}
	s.free = append(s.free, s.order...)
	s.order = s.order[:0]
	s.words = 0
}

// newBitmapBackend builds the backend: one table slot per page of the arena,
// per set — 8 bytes per 4 KiB page, 0.2 % of the arena.
func newBitmapBackend(arena *mem.Arena, _ Config) (Backend, error) {
	nPages := (arena.Size() + pageBytes - 1) / pageBytes
	return &bitmapBuffer{
		arena: arena,
		read:  bitmapSet{table: make([]*bitmapPage, nPages)},
		write: bitmapSet{table: make([]*bitmapPage, nPages)},
	}, nil
}

// locate splits a word base address into (pageIdx, slot within the page).
func (b *bitmapBuffer) locate(base mem.Addr) (uint64, int) {
	wordIdx := uint64(base) / mem.Word
	return wordIdx / pageWords, int(wordIdx % pageWords)
}

// MustStop always reports false: bitmap sets never park an access.
func (b *bitmapBuffer) MustStop() bool { return false }

// ReadSetSize returns the number of buffered read words.
func (b *bitmapBuffer) ReadSetSize() int { return b.read.words }

// WriteSetSize returns the number of buffered written words.
func (b *bitmapBuffer) WriteSetSize() int { return b.write.words }

// Counters exposes the accumulated activity counters.
func (b *bitmapBuffer) Counters() *Counters { return &b.C }

// writeEntry locates (data, marks) for base in the write set, or nil.
func (b *bitmapBuffer) writeEntry(base mem.Addr) (data, marks []byte) {
	pageIdx, slot := b.locate(base)
	pg := b.write.lookup(pageIdx)
	if pg == nil || pg.present[slot/64]&(1<<uint(slot%64)) == 0 {
		return nil, nil
	}
	off := slot * mem.Word
	return pg.data[off : off+mem.Word], pg.mark[off : off+mem.Word]
}

// readWordEntry returns the read-set snapshot word for base, creating it
// from the arena on first touch.
func (b *bitmapBuffer) readWordEntry(base mem.Addr) []byte {
	pageIdx, slot := b.locate(base)
	pg := b.read.page(pageIdx, false)
	off := slot * mem.Word
	word := pg.data[off : off+mem.Word]
	if pg.present[slot/64]&(1<<uint(slot%64)) != 0 {
		return word
	}
	pg.present[slot/64] |= 1 << uint(slot%64)
	b.read.words++
	binary.LittleEndian.PutUint64(word, b.arena.ReadWord(base))
	return word
}

// Load mirrors the openaddr read path; no conflict outcome exists.
func (b *bitmapBuffer) Load(p mem.Addr, size int) (uint64, Status) {
	if !validSize(size) || !mem.Aligned(p, size) {
		return 0, Misaligned
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	wData, wMarks := b.writeEntry(base)
	if wData != nil && allMarked(wMarks[off:off+size]) {
		return readLE(wData[off : off+size]), OK
	}
	rWord := b.readWordEntry(base)
	return mergeLoad(rWord, wData, wMarks, off, size), OK
}

// Store mirrors the openaddr write path; no conflict outcome exists.
func (b *bitmapBuffer) Store(p mem.Addr, size int, v uint64) Status {
	if !validSize(size) || !mem.Aligned(p, size) {
		return Misaligned
	}
	if size < mem.Word {
		b.anyPartial = true
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	pageIdx, slot := b.locate(base)
	pg := b.write.page(pageIdx, true)
	wordOff := slot * mem.Word
	data := pg.data[wordOff : wordOff+mem.Word]
	marks := pg.mark[wordOff : wordOff+mem.Word]
	if pg.present[slot/64]&(1<<uint(slot%64)) == 0 {
		pg.present[slot/64] |= 1 << uint(slot%64)
		b.write.words++
		if size < mem.Word {
			// First touch of a sub-word slot: seed with the arena word and
			// drop whatever marks the page's previous use left here.
			binary.LittleEndian.PutUint64(data, b.arena.ReadWord(base))
			binary.LittleEndian.PutUint64(marks, 0)
		}
	}
	writeLE(data[off:off+size], v, size)
	for i := off; i < off+size; i++ {
		marks[i] = fullMark
	}
	return OK
}

// setBitRange sets count bits of bm starting at bit start and returns how
// many were newly set, whole 64-bit chunks at a time.
func setBitRange(bm []uint64, start, count int) (fresh int) {
	for count > 0 {
		wi, bit := start/64, uint(start%64)
		n := 64 - int(bit)
		if n > count {
			n = count
		}
		mask := rangeMask(bit, n)
		fresh += n - bits.OnesCount64(bm[wi]&mask)
		bm[wi] |= mask
		start += n
		count -= n
	}
	return fresh
}

// countBitRange returns how many of the count bits starting at start are
// set in bm.
func countBitRange(bm []uint64, start, count int) (set int) {
	for count > 0 {
		wi, bit := start/64, uint(start%64)
		n := 64 - int(bit)
		if n > count {
			n = count
		}
		set += bits.OnesCount64(bm[wi] & rangeMask(bit, n))
		start += n
		count -= n
	}
	return set
}

// rangeMask builds the n-bit mask starting at bit (n in [1,64]).
func rangeMask(bit uint, n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << bit
}

// LoadRange performs a buffered read of len(dst)/WORD consecutive words at
// the word-aligned address p. A contiguous run maps to contiguous slots of
// at most a few pages, so the hot paths — the whole span missing (first
// touch), present (re-read) or covered by the speculation's own stores — are
// one page lookup, one bitmap count and one copy per page.
func (b *bitmapBuffer) LoadRange(p mem.Addr, dst []byte) Status {
	nWords, ok := rangeGeometry(p, len(dst))
	if !ok {
		return Misaligned
	}
	for nWords > 0 {
		pageIdx, slot := b.locate(p)
		count := pageWords - slot
		if count > nWords {
			count = nWords
		}
		b.loadPageRange(p, pageIdx, slot, count, dst[:count*mem.Word])
		p += mem.Addr(count * mem.Word)
		dst = dst[count*mem.Word:]
		nWords -= count
	}
	return OK
}

// loadPageRange resolves count words of one page, starting at address p,
// exactly as a word-at-a-time Load loop would. Three whole-span shapes are
// one copy each; anything mixed takes the per-word merge.
func (b *bitmapBuffer) loadPageRange(p mem.Addr, pageIdx uint64, slot, count int, dst []byte) {
	off, end := slot*mem.Word, (slot+count)*mem.Word
	wpg := b.write.lookup(pageIdx)
	written := 0
	if wpg != nil {
		written = countBitRange(wpg.present, slot, count)
	}
	if written == count && (!b.anyPartial || allMarkedWords(wpg.mark[off:end])) {
		// The speculation's own stores cover the span (fft's in-place
		// butterflies): served from the write shadow, the read set and the
		// arena stay out of it.
		copy(dst, wpg.data[off:end])
		return
	}
	rpg := b.read.page(pageIdx, false)
	if written == 0 {
		switch countBitRange(rpg.present, slot, count) {
		case 0: // whole span untouched: snapshot the arena words in one splice
			b.arena.ReadWords(p, rpg.data[off:end])
			b.read.words += setBitRange(rpg.present, slot, count)
			copy(dst, rpg.data[off:end])
			return
		case count: // whole span buffered: serve the snapshots in one splice
			copy(dst, rpg.data[off:end])
			return
		}
	}
	// Mixed span: present read-set words overwrite dst with their snapshots,
	// missing words are snapshotted from the arena bytes sitting in dst, and
	// write-set bytes overlay last.
	b.arena.ReadWords(p, dst)
	for k := 0; k < count; k++ {
		s := slot + k
		wi, bit := s/64, uint64(1)<<uint(s%64)
		wordOff := s * mem.Word
		out := dst[k*mem.Word : (k+1)*mem.Word]
		var wData, wMarks []byte
		if wpg != nil && wpg.present[wi]&bit != 0 {
			wData, wMarks = wpg.data[wordOff:wordOff+mem.Word], wpg.mark[wordOff:wordOff+mem.Word]
			if allMarked8(wMarks) {
				copy(out, wData)
				continue
			}
		}
		rWord := rpg.data[wordOff : wordOff+mem.Word]
		if rpg.present[wi]&bit != 0 {
			copy(out, rWord)
		} else {
			rpg.present[wi] |= bit
			b.read.words++
			copy(rWord, out)
		}
		if wData != nil {
			for j := 0; j < mem.Word; j++ {
				if wMarks[j] == fullMark {
					out[j] = wData[j]
				}
			}
		}
	}
}

// StoreRange performs a buffered write of len(src)/WORD consecutive words
// at the word-aligned address p: per page, one shadow splice, one mark
// fill and one bitmap-range set.
func (b *bitmapBuffer) StoreRange(p mem.Addr, src []byte) Status {
	nWords, ok := rangeGeometry(p, len(src))
	if !ok {
		return Misaligned
	}
	for nWords > 0 {
		pageIdx, slot := b.locate(p)
		count := pageWords - slot
		if count > nWords {
			count = nWords
		}
		pg := b.write.page(pageIdx, true)
		off := slot * mem.Word
		copy(pg.data[off:off+count*mem.Word], src)
		setFullMarks(pg.mark[off : off+count*mem.Word])
		b.write.words += setBitRange(pg.present, slot, count)
		p += mem.Addr(count * mem.Word)
		src = src[count*mem.Word:]
		nWords -= count
	}
	return OK
}

// nextRun returns the first maximal run of set bits of bm at or after bit
// from as (start, n), n 0 when there is none. A run is not cut at 64-bit
// word borders: it ends at the first clear bit or at the bitmap's end.
func nextRun(bm []uint64, from int) (start, n int) {
	wi := from / 64
	if wi >= len(bm) {
		return 0, 0
	}
	w := bm[wi] &^ (1<<uint(from%64) - 1)
	for w == 0 {
		if wi++; wi == len(bm) {
			return 0, 0
		}
		w = bm[wi]
	}
	start = wi*64 + bits.TrailingZeros64(w)
	w = ^bm[wi] &^ (1<<uint(start%64) - 1)
	for w == 0 {
		if wi++; wi == len(bm) {
			return start, len(bm)*64 - start
		}
		w = ^bm[wi]
	}
	return start, wi*64 + bits.TrailingZeros64(w) - start
}

// base returns the arena address of the page's first word.
func (pg *bitmapPage) base() mem.Addr { return mem.Addr(pg.pageIdx * pageBytes) }

// Validate checks every read-set word against the arena.
func (b *bitmapBuffer) Validate() bool { return b.ValidateDirty(nil, 0) }

// ValidateDirty walks the read set page by page. A page not stamped since
// snap is skipped whole after one stamp check — the bitmap page is the
// stamp page, so the check reads one slot — and every maximal run of a
// stamped page is compared with one bulk comparison. nil stamps compares
// every page.
func (b *bitmapBuffer) ValidateDirty(stamps *mem.WriteStamps, snap uint64) bool {
	b.C.Validations++
	for _, pg := range b.read.order {
		base := pg.base()
		if stamps != nil && !stamps.DirtySince(base, pageBytes, snap) {
			continue
		}
		for s, n := nextRun(pg.present, 0); n > 0; s, n = nextRun(pg.present, s+n) {
			b.C.WordsValidated += uint64(n)
			off := s * mem.Word
			if !b.arena.EqualWords(base+mem.Addr(off), pg.data[off:off+n*mem.Word]) {
				b.C.ValidationFail++
				return false
			}
		}
	}
	return true
}

// Commit applies the write set to the arena page by page, one maximal run
// at a time: with no sub-word store in the speculation every run is
// spliced with one arena write, otherwise commitMarked splits it at
// partially-marked words.
func (b *bitmapBuffer) Commit(stamps *mem.WriteStamps) {
	for _, pg := range b.write.order {
		base := pg.base()
		for s, n := nextRun(pg.present, 0); n > 0; s, n = nextRun(pg.present, s+n) {
			off, end := s*mem.Word, (s+n)*mem.Word
			if b.anyPartial {
				commitMarked(b.arena, &b.C, base+mem.Addr(off), pg.data[off:end], pg.mark[off:end], stamps)
			} else {
				commitRun(b.arena, &b.C, base+mem.Addr(off), pg.data[off:end], stamps)
			}
		}
	}
}

// Finalize clears both sets in time proportional to the pages touched.
func (b *bitmapBuffer) Finalize() {
	b.read.reset()
	b.write.reset()
	b.anyPartial = false
}
