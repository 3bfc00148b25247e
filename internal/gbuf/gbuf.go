// Package gbuf implements the MUTLS GlobalBuffer (paper §IV-G2): per-thread
// buffering of non-local (static, heap, non-speculative stack) memory
// accesses in statically allocated read-set and write-set hash maps.
//
// Each map follows the paper's design exactly: a byte array `buffer` that is
// a multiple of the WORD size, a pointer array `addresses`, and an integer
// stack `offsets`, all with a fixed maximum of N elements. The two arrays
// implement the hash map while the stack guarantees that validation, commit
// and finalization of threads touching little data stay fast. A byte array
// `mark` with the same size as `buffer` supports accesses smaller than a
// word. On a hash-slot conflict the access is diverted to a small temporary
// overflow buffer and the thread must wait to be joined at its next check
// point; if the overflow buffer fills up, the thread rolls back.
//
// That design is one of several read/write-set organizations the package
// offers: the Backend interface abstracts the buffering contract, and a
// registry of named constructors ("openaddr" — this file's Buffer —
// "chain" and "bitmap") lets the runtime select the organization per run.
// The runtime's default is "bitmap" (page shadows, bitmap.go), which the
// wall-clock ladder measures cheapest; "openaddr" is how to run the paper's
// organization. See backend.go, chain.go and bitmap.go.
package gbuf

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// Status classifies the outcome of a buffered access.
type Status uint8

const (
	// OK: the access hit the main hash map.
	OK Status = iota
	// Conflict: the hash slot was taken by another address; the access was
	// absorbed by the overflow buffer and the thread must wait to be joined
	// at its next check point (paper: "the speculative thread will wait to
	// be joined at the next check point").
	Conflict
	// Full: the overflow buffer is exhausted; the thread must roll back.
	Full
	// Misaligned: the address is not aligned by the access size; the access
	// is unsupported and the thread must roll back.
	Misaligned
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case Conflict:
		return "Conflict"
	case Full:
		return "Full"
	case Misaligned:
		return "Misaligned"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

const fullMark = 0xFF

// ovEntry is one word parked in the temporary overflow buffer.
type ovEntry struct {
	base mem.Addr // word-aligned address
	data [mem.Word]byte
	mark [mem.Word]byte // write entries: which bytes were written
}

// hashMap is the paper's static-memory map: buffer/addresses/offsets/mark.
type hashMap struct {
	buf   []byte     // nWords * Word bytes of buffered data
	addrs []mem.Addr // nWords word-base addresses; 0 = empty slot
	mark  []byte     // nWords * Word byte marks (write set only)
	used  []int32    // stack of occupied slot indices
	top   int
	mask  uint64 // nWords - 1
}

func newHashMap(nWords int, withMarks bool) hashMap {
	m := hashMap{
		buf:   make([]byte, nWords*mem.Word),
		addrs: make([]mem.Addr, nWords),
		used:  make([]int32, nWords),
		mask:  uint64(nWords - 1),
	}
	if withMarks {
		m.mark = make([]byte, nWords*mem.Word)
	}
	return m
}

// slot computes the hash slot: the paper uses the lower bits of the address
// as the buffer offset and divides by WORD for the array index.
func (m *hashMap) slot(base mem.Addr) int {
	return int((uint64(base) >> 3) & m.mask)
}

// lookup returns the slot index if base is present, or -1.
func (m *hashMap) lookup(base mem.Addr) int {
	i := m.slot(base)
	if m.addrs[i] == base {
		return i
	}
	return -1
}

// insert claims a slot for base. It returns (index, true) on success and
// (-1, false) when the slot is occupied by a different address.
func (m *hashMap) insert(base mem.Addr) (int, bool) {
	i := m.slot(base)
	switch m.addrs[i] {
	case base:
		return i, true
	case mem.NilAddr:
		m.addrs[i] = base
		m.used[m.top] = int32(i)
		m.top++
		return i, true
	}
	return -1, false
}

func (m *hashMap) word(i int) []byte { return m.buf[i*mem.Word : i*mem.Word+mem.Word] }

func (m *hashMap) markWord(i int) []byte { return m.mark[i*mem.Word : i*mem.Word+mem.Word] }

// reset clears exactly the used slots (the offsets-stack trick that keeps
// finalization proportional to the data touched, not the map size). The
// data word needs no scrubbing: addrs guards it, and every claim of a slot
// writes the whole word. Marks do — a sub-word store sets only its bytes.
func (m *hashMap) reset() {
	for k := 0; k < m.top; k++ {
		i := int(m.used[k])
		m.addrs[i] = mem.NilAddr
		if m.mark != nil {
			binary.LittleEndian.PutUint64(m.markWord(i), 0)
		}
	}
	m.top = 0
}

// Counters accumulates GlobalBuffer activity for the statistics module.
type Counters struct {
	Conflicts      uint64 // accesses diverted to the overflow buffer
	Validations    uint64 // Validate calls
	ValidationFail uint64 // Validate calls that found a conflict
	WordsValidated uint64 // read-set words compared against the arena
	WordsCommitted uint64 // whole words applied on the fast path
}

// Buffer is one speculative thread's GlobalBuffer: a read set, a write set
// and the shared arena the sets validate against and commit into.
type Buffer struct {
	arena    *mem.Arena
	read     hashMap
	write    hashMap
	readOv   []ovEntry
	writeOv  []ovEntry
	ovCap    int
	mustStop bool
	// anyPartial is sticky: set by the first sub-word store of the
	// speculation. While false every buffered word is provably fully
	// marked, so the commit walk — the serialized section — skips mark
	// scanning entirely.
	anyPartial bool
	C          Counters
}

// Config selects a GlobalBuffer backend and sizes the openaddr maps; the
// bitmap and chain backends have no sizing (a bitmap page is the arena's
// write-stamp page, a chain set has 2^12 buckets). Defaulting is explicit:
// the core/mutls layers pass configs through WithDefaults, which fills
// zero fields; the constructors themselves (New, NewBackend) take every
// field literally and only validate it.
type Config struct {
	// Backend names the buffering organization: "bitmap" (per-page shadows
	// with word-granularity presence bitmaps and lazy page allocation, the
	// default), "openaddr" (the paper's static open-addressing maps) or
	// "chain" (dynamically chained buckets, never parks on conflicts).
	// Empty selects DefaultBackend.
	Backend string

	// LogWords sizes the openaddr maps: 1<<LogWords words each.
	LogWords int
	// OverflowCap is the openaddr limit of parked words per set before the
	// thread must roll back. Through WithDefaults, zero selects the
	// default and NoOverflow disables conflict parking entirely (the
	// first hash conflict returns Full); the constructors treat both 0
	// and NoOverflow as "no overflow slots".
	OverflowCap int
}

// NoOverflow as OverflowCap requests a buffer with no overflow parking at
// all: the first hash conflict returns Full and the thread rolls back.
// (A plain 0 selects the default capacity instead.)
const NoOverflow = -1

// WithDefaults fills every zero sizing field with its default (2^16 words,
// 64 overflow slots) and an empty Backend with DefaultBackend. Validation
// still happens at construction: explicit out-of-range values are errors,
// never silently clamped.
func (c Config) WithDefaults() Config {
	if c.Backend == "" {
		c.Backend = DefaultBackend
	}
	if c.LogWords == 0 {
		c.LogWords = 16
	}
	if c.OverflowCap == 0 {
		c.OverflowCap = 64 // NoOverflow (-1) stays: parking disabled
	}
	return c
}

// New creates the paper's open-addressing GlobalBuffer over the given
// arena (the "openaddr" backend).
func New(arena *mem.Arena, cfg Config) (*Buffer, error) {
	if cfg.LogWords < 1 || cfg.LogWords > 30 {
		return nil, fmt.Errorf("gbuf: LogWords %d out of range [1,30]", cfg.LogWords)
	}
	if cfg.OverflowCap == NoOverflow {
		cfg.OverflowCap = 0
	}
	if cfg.OverflowCap < 0 {
		return nil, fmt.Errorf("gbuf: negative overflow capacity %d", cfg.OverflowCap)
	}
	n := 1 << cfg.LogWords
	return &Buffer{
		arena:   arena,
		read:    newHashMap(n, false),
		write:   newHashMap(n, true),
		readOv:  make([]ovEntry, 0, cfg.OverflowCap),
		writeOv: make([]ovEntry, 0, cfg.OverflowCap),
		ovCap:   cfg.OverflowCap,
	}, nil
}

// MustStop reports whether an overflow entry is in use, which obliges the
// thread to wait for its join at the next check point.
func (b *Buffer) MustStop() bool { return b.mustStop }

// Counters exposes the accumulated activity counters.
func (b *Buffer) Counters() *Counters { return &b.C }

// ReadSetSize returns the number of buffered read words (map + overflow).
func (b *Buffer) ReadSetSize() int { return b.read.top + len(b.readOv) }

// WriteSetSize returns the number of buffered written words (map + overflow).
func (b *Buffer) WriteSetSize() int { return b.write.top + len(b.writeOv) }

// findWriteOv returns the overflow write entry for base, or nil.
func (b *Buffer) findWriteOv(base mem.Addr) *ovEntry {
	for i := range b.writeOv {
		if b.writeOv[i].base == base {
			return &b.writeOv[i]
		}
	}
	return nil
}

// findReadOv returns the overflow read entry for base, or nil.
func (b *Buffer) findReadOv(base mem.Addr) *ovEntry {
	for i := range b.readOv {
		if b.readOv[i].base == base {
			return &b.readOv[i]
		}
	}
	return nil
}

// writeEntry locates (data, marks) for base in the write set, or nil.
func (b *Buffer) writeEntry(base mem.Addr) (data, marks []byte) {
	if i := b.write.lookup(base); i >= 0 {
		return b.write.word(i), b.write.markWord(i)
	}
	if e := b.findWriteOv(base); e != nil {
		return e.data[:], e.mark[:]
	}
	return nil, nil
}

// readWordEntry returns the read-set snapshot word for base, creating it
// from the arena on first touch. ok=false means the overflow buffer is full.
func (b *Buffer) readWordEntry(base mem.Addr) (word []byte, st Status) {
	if i := b.read.lookup(base); i >= 0 {
		return b.read.word(i), OK
	}
	if e := b.findReadOv(base); e != nil {
		return e.data[:], OK
	}
	if i, ok := b.read.insert(base); ok {
		w := b.read.word(i)
		binary.LittleEndian.PutUint64(w, b.arena.ReadWord(base))
		return w, OK
	}
	// Hash conflict: park in the temporary buffer.
	b.C.Conflicts++
	if len(b.readOv) >= b.ovCap {
		return nil, Full
	}
	var e ovEntry
	e.base = base
	binary.LittleEndian.PutUint64(e.data[:], b.arena.ReadWord(base))
	b.readOv = append(b.readOv, e)
	b.mustStop = true
	return b.readOv[len(b.readOv)-1].data[:], Conflict
}

// Load performs a buffered read of size bytes (1, 2, 4 or 8) at p, returning
// the little-endian value. Reads come from the write set if fully written
// there, otherwise from the read set (loading from the arena on first
// access) merged with any marked written bytes (paper's read-your-own-writes
// rule for sub-word data).
func (b *Buffer) Load(p mem.Addr, size int) (uint64, Status) {
	if !validSize(size) || !mem.Aligned(p, size) {
		return 0, Misaligned
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	wData, wMarks := b.writeEntry(base)
	if wData != nil && allMarked(wMarks[off:off+size]) {
		return readLE(wData[off : off+size]), OK
	}
	// Need the underlying word: read set (snapshotting it for validation).
	rWord, st := b.readWordEntry(base)
	if st == Full {
		return 0, Full
	}
	return mergeLoad(rWord, wData, wMarks, off, size), st
}

// Store performs a buffered write of size bytes (1, 2, 4 or 8) at p. Whole
// words overwrite the slot and set every mark; sub-word stores first fill
// the slot from the arena (as the paper does) and then mark the written
// bytes so commit applies exactly them.
func (b *Buffer) Store(p mem.Addr, size int, v uint64) Status {
	if !validSize(size) || !mem.Aligned(p, size) {
		return Misaligned
	}
	if size < mem.Word {
		b.anyPartial = true
	}
	base := mem.WordBase(p)
	off := mem.WordOffset(p)
	data, marks := b.writeEntry(base)
	st := OK
	if data == nil {
		if i, ok := b.write.insert(base); ok {
			data, marks = b.write.word(i), b.write.markWord(i)
		} else {
			b.C.Conflicts++
			if len(b.writeOv) >= b.ovCap {
				return Full
			}
			b.writeOv = append(b.writeOv, ovEntry{base: base})
			e := &b.writeOv[len(b.writeOv)-1]
			data, marks = e.data[:], e.mark[:]
			b.mustStop = true
			st = Conflict
		}
		if size < mem.Word {
			// First touch of a sub-word slot: seed with the arena word.
			binary.LittleEndian.PutUint64(data, b.arena.ReadWord(base))
		}
	}
	writeLE(data[off:off+size], v, size)
	for i := off; i < off+size; i++ {
		marks[i] = fullMark
	}
	return st
}

// LoadRange performs a buffered read of len(dst)/WORD consecutive words at
// the word-aligned address p — the openaddr bulk path. Consecutive
// addresses occupy consecutive hash slots (the slot is the address's low
// bits), so the walk advances a slot cursor instead of re-hashing, seeds
// every missed snapshot from one arena splice, and falls back to the
// word-at-a-time overflow machinery only on slots held by foreign
// addresses.
func (b *Buffer) LoadRange(p mem.Addr, dst []byte) Status {
	nWords, ok := rangeGeometry(p, len(dst))
	if !ok {
		return Misaligned
	}
	if nWords == 0 {
		return OK
	}
	// Seed dst with the current arena words in one splice; buffered
	// snapshots overwrite their words below.
	b.arena.ReadWords(p, dst)
	hasWrites := b.write.top > 0 || len(b.writeOv) > 0
	st := OK
	i := b.read.slot(p)
	mask := int(b.read.mask)
	for k := 0; k < nWords; k, i = k+1, (i+1)&mask {
		base := p + mem.Addr(k*mem.Word)
		out := dst[k*mem.Word : (k+1)*mem.Word]
		var wData, wMarks []byte
		if hasWrites {
			wData, wMarks = b.writeEntry(base)
			if wData != nil && allMarked8(wMarks) {
				copy(out, wData)
				continue
			}
		}
		switch b.read.addrs[i] {
		case base:
			copy(out, b.read.word(i))
		case mem.NilAddr:
			// First touch: claim the slot and snapshot the arena word
			// already sitting in dst.
			b.read.addrs[i] = base
			b.read.used[b.read.top] = int32(i)
			b.read.top++
			copy(b.read.word(i), out)
		default:
			// Foreign address in the slot: the overflow path, one word.
			rWord, rst := b.readWordEntry(base)
			if rst == Full {
				return Full
			}
			st = worse(st, rst)
			copy(out, rWord)
		}
		if wData != nil {
			for j := 0; j < mem.Word; j++ {
				if wMarks[j] == fullMark {
					out[j] = wData[j]
				}
			}
		}
	}
	return st
}

// StoreRange performs a buffered write of len(src)/WORD consecutive words
// at the word-aligned address p, claiming consecutive hash slots with a
// slot cursor and splicing whole words (full marks set eight at a time).
func (b *Buffer) StoreRange(p mem.Addr, src []byte) Status {
	nWords, ok := rangeGeometry(p, len(src))
	if !ok {
		return Misaligned
	}
	if nWords == 0 {
		return OK
	}
	st := OK
	i := b.write.slot(p)
	mask := int(b.write.mask)
	for k := 0; k < nWords; k, i = k+1, (i+1)&mask {
		base := p + mem.Addr(k*mem.Word)
		in := src[k*mem.Word : (k+1)*mem.Word]
		var data, marks []byte
		switch b.write.addrs[i] {
		case base:
			data, marks = b.write.word(i), b.write.markWord(i)
		case mem.NilAddr:
			b.write.addrs[i] = base
			b.write.used[b.write.top] = int32(i)
			b.write.top++
			data, marks = b.write.word(i), b.write.markWord(i)
		default:
			// Foreign address in the slot: the overflow path, one word.
			if e := b.findWriteOv(base); e != nil {
				data, marks = e.data[:], e.mark[:]
			} else {
				b.C.Conflicts++
				if len(b.writeOv) >= b.ovCap {
					return Full
				}
				b.writeOv = append(b.writeOv, ovEntry{base: base})
				e := &b.writeOv[len(b.writeOv)-1]
				data, marks = e.data[:], e.mark[:]
				b.mustStop = true
				st = Conflict
			}
		}
		copy(data, in)
		binary.LittleEndian.PutUint64(marks, onesWord)
	}
	return st
}

// Validate checks every read-set word against the arena.
func (b *Buffer) Validate() bool { return b.ValidateDirty(nil, 0) }

// ValidateDirty compares the read set with the arena. Conflicts only occur
// when the speculative thread read an address before the non-speculative
// thread wrote it, so equality of the snapshot with current memory is
// exactly the paper's validation criterion. Bulk loads claim consecutive
// slots for consecutive addresses, so the walk batches such runs, cut at
// stamp-page borders, into one arena comparison each; isolated words compare
// one at a time. A run on a page stamps has not marked since snap is
// trusted uncompared.
func (b *Buffer) ValidateDirty(stamps *mem.WriteStamps, snap uint64) bool {
	b.C.Validations++
	for k := 0; k < b.read.top; {
		i := int(b.read.used[k])
		base := b.read.addrs[i]
		run := 1
		for k+run < b.read.top {
			j := int(b.read.used[k+run])
			next := base + mem.Addr(run*mem.Word)
			if j != i+run || b.read.addrs[j] != next || next%pageBytes == 0 {
				break
			}
			run++
		}
		if stamps == nil || stamps.DirtySince(base, run*mem.Word, snap) {
			b.C.WordsValidated += uint64(run)
			if !b.arena.EqualWords(base, b.read.buf[i*mem.Word:(i+run)*mem.Word]) {
				b.C.ValidationFail++
				return false
			}
		}
		k += run
	}
	for k := range b.readOv {
		e := &b.readOv[k]
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

// Commit applies the write set to the arena: whole words at once when all
// eight marks are set (the paper's -1 mark optimization), marked bytes
// individually otherwise. Fully-marked runs over consecutive slots — the
// shape bulk stores leave behind — are spliced with one arena write each.
func (b *Buffer) Commit(stamps *mem.WriteStamps) {
	w := &b.write
	for k := 0; k < w.top; {
		i := int(w.used[k])
		base := w.addrs[i]
		n := 1
		for k+n < w.top && int(w.used[k+n]) == i+n &&
			w.addrs[i+n] == base+mem.Addr(n*mem.Word) {
			n++
		}
		data := w.buf[i*mem.Word : (i+n)*mem.Word]
		if b.anyPartial {
			commitMarked(b.arena, &b.C, base, data, w.mark[i*mem.Word:(i+n)*mem.Word], stamps)
		} else {
			// No sub-word store happened: every mark is full by
			// construction, the whole address run splices at once.
			commitRun(b.arena, &b.C, base, data, stamps)
		}
		k += n
	}
	for k := range b.writeOv {
		e := &b.writeOv[k]
		commitWord(b.arena, &b.C, e.base, e.data[:], e.mark[:], stamps)
	}
}

// Finalize clears both sets and the overflow buffers, returning the buffer
// to its initial state for the next speculation. Costs are proportional to
// the slots actually used.
func (b *Buffer) Finalize() {
	b.read.reset()
	b.write.reset()
	b.readOv = b.readOv[:0]
	b.writeOv = b.writeOv[:0]
	b.mustStop = false
	b.anyPartial = false
}

func validSize(size int) bool {
	return size == 1 || size == 2 || size == 4 || size == 8
}

func allMarked(m []byte) bool {
	for _, b := range m {
		if b != fullMark {
			return false
		}
	}
	return true
}

func readLE(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func writeLE(b []byte, v uint64, size int) {
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
