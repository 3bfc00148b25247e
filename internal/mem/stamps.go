package mem

import (
	"fmt"
	"sync/atomic"
)

// StampPageBytes is the dirty-table granularity: coarse enough that the
// table stays small and marking a bulk store touches few entries, fine
// enough that an unrelated hot write rarely dirties a validated page. It is
// fixed: the bitmap GlobalBuffer's page is this page, so its validation
// reads one stamp per page.
const (
	StampPageBytes = 1 << stampPageShift
	stampPageShift = 12
)

// WriteStamps is a page-granularity dirty table over an arena: every direct
// arena write (non-speculative stores, write-set commits) stamps the pages
// it touched with a fresh global sequence number. It exists so the commit
// serial section compares as little of the read set as it can: a
// speculative thread snapshots the sequence before its first arena load,
// and its join compares only the read-set runs whose pages were stamped
// after that snapshot — every other run still holds what it loaded.
//
// Ordering contract (the soundness of the scheme depends on it):
//
//   - Writers store the data FIRST, then call Mark. A write stamped at or
//     before a reader's snapshot stored its data before the reader's loads,
//     so the reader saw it. If the reader instead saw a value a later write
//     replaced, that write's Mark — which follows its data store — produces
//     a stamp strictly greater than the snapshot; DirtySince then reports
//     the page dirty and the run is compared at the join.
//   - Readers call Snapshot BEFORE loading any arena word they will
//     validate (a speculation: at region entry).
//   - Marks from writes that happened before the join's serial section are
//     visible there through the join handshake's release/acquire chain; no
//     direct write runs concurrently with the serial section itself,
//     because commits and non-speculative stores are serialized through the
//     non-speculative thread.
//   - A commit made while no other speculative thread is live stamps
//     nothing (CommitWords with nil stamps): no snapshot is live, and every
//     later reader forks — and snapshots — after it.
//
// The stamp slots are atomics, so marking and checking race cleanly with
// each other and with the arena's racy-by-design reads.
type WriteStamps struct {
	seq    atomic.Uint64
	stamps []atomic.Uint64
}

// NewWriteStamps builds a dirty table covering size arena bytes in
// StampPageBytes pages. pageBytes must be 0: the page is not a setting, and
// the parameter is kept only so existing callers still build.
func NewWriteStamps(size, pageBytes int) (*WriteStamps, error) {
	if pageBytes != 0 {
		return nil, fmt.Errorf("mem: stamp page size %d: the page is fixed at %d bytes, pass 0", pageBytes, StampPageBytes)
	}
	if size < 0 {
		return nil, fmt.Errorf("mem: negative stamp coverage %d", size)
	}
	return &WriteStamps{stamps: make([]atomic.Uint64, max(1, (size+StampPageBytes-1)/StampPageBytes))}, nil
}

// Snapshot returns the current sequence number. A speculation takes it
// before loading any arena word its join will validate.
func (ws *WriteStamps) Snapshot() uint64 { return ws.seq.Load() }

// Mark stamps every page overlapping [p, p+n) with a fresh sequence
// number. The caller must have stored the data already (write-then-stamp).
func (ws *WriteStamps) Mark(p Addr, n int) {
	if n <= 0 {
		return
	}
	s := ws.seq.Add(1)
	first := int(uint64(p) >> stampPageShift)
	last := int(uint64(p+Addr(n)-1) >> stampPageShift)
	if last >= len(ws.stamps) {
		last = len(ws.stamps) - 1
	}
	for i := first; i <= last && i >= 0; i++ {
		ws.stamps[i].Store(s)
	}
}

// DirtySince reports whether any page overlapping [p, p+n) was marked
// after the given Snapshot value.
func (ws *WriteStamps) DirtySince(p Addr, n int, snap uint64) bool {
	if n <= 0 {
		return false
	}
	first := int(uint64(p) >> stampPageShift)
	last := int(uint64(p+Addr(n)-1) >> stampPageShift)
	if last >= len(ws.stamps) {
		last = len(ws.stamps) - 1
	}
	for i := first; i <= last && i >= 0; i++ {
		if ws.stamps[i].Load() > snap {
			return true
		}
	}
	return false
}
