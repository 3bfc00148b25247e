package gbuf

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Backend is the speculative-buffering contract every GlobalBuffer
// implementation satisfies. The runtime (internal/core) programs against
// this interface only; concrete organizations — per-page bitmaps (the
// default), the paper's static open-addressing maps, dynamically chained
// buckets — are selected by name through the registry below. A
// speculative thread's access to a global address crosses it exactly once:
// core.Thread's router sends it to one of Load, Store, LoadRange or
// StoreRange.
//
// Semantics shared by all backends:
//
//   - Load/Store buffer word-granularity accesses against the arena.
//     Sub-word stores are tracked with byte marks so Commit applies exactly
//     the written bytes.
//   - Validate compares every read-set snapshot word with current memory.
//   - Commit applies the write set; callers serialize committers via the
//     join protocol.
//   - Finalize returns the buffer to its initial state in time proportional
//     to the data actually touched.
//   - MustStop reports whether the thread must wait to be joined at its
//     next check point (backends without conflict parking always report
//     false).
type Backend interface {
	// Load performs a buffered read of size bytes (1, 2, 4 or 8) at p.
	Load(p mem.Addr, size int) (uint64, Status)
	// Store performs a buffered write of size bytes (1, 2, 4 or 8) at p.
	Store(p mem.Addr, size int, v uint64) Status
	// LoadRange performs a buffered read of len(dst)/WORD consecutive
	// words at the word-aligned address p, filling dst with little-endian
	// bytes. It is exactly equivalent to a word-at-a-time Load loop —
	// identical read/write sets, statuses (the worst per-word outcome is
	// returned; a Full aborts the walk where the loop would roll back) and
	// Conflicts count — but pays the interface crossing, the set probes and
	// the data movement once per run instead of once per word. Misaligned
	// geometry (p or len(dst) not word-multiple) returns Misaligned.
	LoadRange(p mem.Addr, dst []byte) Status
	// StoreRange performs a buffered write of len(src)/WORD consecutive
	// words of little-endian bytes at the word-aligned address p, with the
	// same equivalence contract as LoadRange.
	StoreRange(p mem.Addr, src []byte) Status
	// Validate checks the read set against the arena.
	Validate() bool
	// ValidateDirty compares only the read-set words on pages stamps marked
	// after snap, a stamps.Snapshot taken before the speculation's first
	// load, and trusts the rest: each was loaded after the snapshot, so it
	// still matches the arena unless its page was written since. Its
	// verdict is a full Validate's at the same instant, and WordsValidated
	// counts the words it compared; nil stamps is Validate.
	ValidateDirty(stamps *mem.WriteStamps, snap uint64) bool
	// Commit applies the write set to the arena as maximal runs, each
	// through mem.Arena.CommitWords: stamped in stamps, or — stamps nil,
	// when no other thread can be reading the arena — stored plainly.
	Commit(stamps *mem.WriteStamps)
	// Finalize clears all buffered state for the next speculation.
	Finalize()
	// MustStop reports whether the thread must wait for its join.
	MustStop() bool
	// ReadSetSize returns the number of buffered read words.
	ReadSetSize() int
	// WriteSetSize returns the number of buffered written words.
	WriteSetSize() int
	// Counters exposes the backend's accumulated activity counters.
	Counters() *Counters
}

// registry maps each backend name to its constructor. Constructors build a
// Backend over an arena from a (defaulted, but not yet validated) Config and
// reject invalid sizing with an error rather than panicking or silently
// mis-sizing.
var registry = map[string]func(arena *mem.Arena, cfg Config) (Backend, error){
	"openaddr": func(arena *mem.Arena, cfg Config) (Backend, error) { return New(arena, cfg) },
	"chain":    newChainBackend,
	"bitmap":   newBitmapBackend,
}

// Backends returns the backend names, sorted.
func Backends() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultBackend is the backend selected by an empty Config.Backend: the
// page-shadow organization, whose range accesses, validation and
// finalization are the cheapest of the three (benchmark ladder, gbuf.*
// rungs). The paper's open-addressing design stays available as "openaddr".
const DefaultBackend = "bitmap"

// NewBackend dispatches cfg.Backend through the registry. An empty name
// selects DefaultBackend. Sizing fields are validated by the constructor;
// callers that want zero fields filled use Config.WithDefaults first.
func NewBackend(arena *mem.Arena, cfg Config) (Backend, error) {
	name := cfg.Backend
	if name == "" {
		name = DefaultBackend
	}
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("gbuf: unknown backend %q (registered: %v)", name, Backends())
	}
	return ctor(arena, cfg)
}

// Add accumulates another counter set into c (used to aggregate per-CPU
// backend counters into a run summary).
func (c *Counters) Add(o *Counters) {
	c.Conflicts += o.Conflicts
	c.Validations += o.Validations
	c.ValidationFail += o.ValidationFail
	c.WordsValidated += o.WordsValidated
	c.WordsCommitted += o.WordsCommitted
}

// rangeGeometry validates a bulk access and returns its word count.
func rangeGeometry(p mem.Addr, n int) (nWords int, ok bool) {
	if n%mem.Word != 0 || !mem.Aligned(p, mem.Word) {
		return 0, false
	}
	return n / mem.Word, true
}

// worse folds per-word statuses into the range outcome: Full dominates
// Conflict dominates OK (Misaligned never reaches the fold — geometry is
// checked up front).
func worse(a, b Status) Status {
	if b > a {
		return b
	}
	return a
}

// onesWord is a fully-set mark word: eight fullMark bytes at once.
const onesWord = ^uint64(0)

// setFullMarks marks whole words as written, eight marks per store.
func setFullMarks(marks []byte) {
	for i := 0; i+mem.Word <= len(marks); i += mem.Word {
		binary.LittleEndian.PutUint64(marks[i:], onesWord)
	}
}

// allMarked8 reports whether one word's eight marks are all set (the
// single-compare form of allMarked for the word-granular hot paths).
func allMarked8(marks []byte) bool {
	return binary.LittleEndian.Uint64(marks) == onesWord
}

// allMarkedWords reports whether every mark of a word-multiple slice is
// set, stepping a word at a time (the bulk form of allMarked for run-sized
// mark scans on the commit path).
func allMarkedWords(marks []byte) bool {
	for len(marks) >= mem.Word {
		if binary.LittleEndian.Uint64(marks[:mem.Word]) != onesWord {
			return false
		}
		marks = marks[mem.Word:]
	}
	return true
}

// commitRun applies nWords fully-marked buffered words starting at base in
// one arena splice. Callers have already checked the marks.
func commitRun(arena *mem.Arena, c *Counters, base mem.Addr, data []byte, stamps *mem.WriteStamps) {
	arena.CommitWords(base, data, stamps)
	c.WordsCommitted += uint64(len(data) / mem.Word)
}

// mergeLoad implements the read-your-own-writes rule shared by every
// backend: the snapshot word overlaid with the bytes the write set has
// marked, sliced to the access. rWord is the read-set snapshot; wData and
// wMarks are the write-set word and its byte marks (both nil when the word
// was never written).
func mergeLoad(rWord, wData, wMarks []byte, off, size int) uint64 {
	var tmp [mem.Word]byte
	copy(tmp[:], rWord)
	if wData != nil {
		for i := off; i < off+size; i++ {
			if wMarks[i] == fullMark {
				tmp[i] = wData[i]
			}
		}
	}
	return readLE(tmp[off : off+size])
}

// commitMarked applies a run of consecutive buffered words whose marks may
// be partial: each maximal fully-marked stretch is spliced with one arena
// write, each partially-marked word takes commitWord's marked-byte walk.
func commitMarked(arena *mem.Arena, c *Counters, base mem.Addr, data, marks []byte, stamps *mem.WriteStamps) {
	n := len(data) / mem.Word
	for s := 0; s < n; {
		f := s
		for f < n && allMarked8(marks[f*mem.Word:]) {
			f++
		}
		if f > s {
			commitRun(arena, c, base+mem.Addr(s*mem.Word), data[s*mem.Word:f*mem.Word], stamps)
			s = f
			continue
		}
		commitWord(arena, c, base+mem.Addr(s*mem.Word), data[s*mem.Word:(s+1)*mem.Word], marks[s*mem.Word:(s+1)*mem.Word], stamps)
		s++
	}
}

// commitWord merges one buffered word into the arena: whole words at once
// when all eight marks are set (the paper's -1 mark optimization), marked
// bytes individually otherwise. Committers are serialized by the join
// protocol, so the read-modify-write is safe. Shared by every backend.
func commitWord(arena *mem.Arena, c *Counters, base mem.Addr, data, marks []byte, stamps *mem.WriteStamps) {
	if allMarked(marks) {
		arena.CommitWords(base, data[:mem.Word], stamps)
		c.WordsCommitted++
		return
	}
	var merged [mem.Word]byte
	binary.LittleEndian.PutUint64(merged[:], arena.ReadWord(base))
	for i := range merged {
		if marks[i] == fullMark {
			merged[i] = data[i]
		}
	}
	arena.CommitWords(base, merged[:], stamps)
}
