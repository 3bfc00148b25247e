package mem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry tracks the valid global address space: the ranges of every live
// static and heap object plus the non-speculative stack region. It is the
// paper's "address space registration mechanism" (§IV-G1): object spaces are
// registered at creation and deregistered at deletion, adjacent spaces are
// merged, and a speculative thread that touches an address outside every
// registered range must roll back.
//
// Mutations only happen on the non-speculative thread (the paper forbids
// speculative allocation), while lookups happen concurrently on every
// speculative thread's access path. The range set is therefore kept as an
// immutable sorted slice behind an atomic pointer: writers copy, readers
// load and binary-search without locks.
type Registry struct {
	mu     sync.Mutex // serializes writers
	ranges atomic.Pointer[[]Range]
}

// Range is a half-open interval [Start, End) of valid addresses.
type Range struct {
	Start Addr
	End   Addr
}

// Len returns the range size in bytes.
func (r Range) Len() int { return int(r.End - r.Start) }

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	reg := &Registry{}
	empty := make([]Range, 0)
	reg.ranges.Store(&empty)
	return reg
}

// Register adds [p, p+n) to the valid global address space, merging it with
// any adjacent or overlapping registered ranges (the paper's "adjacent spaces
// can be merged to improve performance").
func (r *Registry) Register(p Addr, n int) error {
	if p == NilAddr || n <= 0 {
		return fmt.Errorf("mem: invalid registration [%d,+%d)", p, n)
	}
	end := p + Addr(n)
	if end < p {
		return fmt.Errorf("mem: registration wraps address space")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.ranges.Load()
	// Find the insertion window: every range that overlaps or touches
	// [p,end) gets merged into one.
	lo := sort.Search(len(old), func(i int) bool { return old[i].End >= p })
	hi := lo
	start, stop := p, end
	for hi < len(old) && old[hi].Start <= end {
		if old[hi].Start < start {
			start = old[hi].Start
		}
		if old[hi].End > stop {
			stop = old[hi].End
		}
		hi++
	}
	next := make([]Range, 0, len(old)+1)
	next = append(next, old[:lo]...)
	next = append(next, Range{start, stop})
	next = append(next, old[hi:]...)
	r.ranges.Store(&next)
	return nil
}

// Deregister removes [p, p+n) from the valid space, splitting any range that
// spans it. Removing space that was never registered is not an error: object
// deletion may deregister a sub-range of a merged block.
func (r *Registry) Deregister(p Addr, n int) error {
	if p == NilAddr || n <= 0 {
		return fmt.Errorf("mem: invalid deregistration [%d,+%d)", p, n)
	}
	end := p + Addr(n)
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.ranges.Load()
	next := make([]Range, 0, len(old)+1)
	for _, rg := range old {
		if rg.End <= p || rg.Start >= end {
			next = append(next, rg)
			continue
		}
		if rg.Start < p {
			next = append(next, Range{rg.Start, p})
		}
		if rg.End > end {
			next = append(next, Range{end, rg.End})
		}
	}
	r.ranges.Store(&next)
	return nil
}

// Contains reports whether the whole interval [p, p+n) lies inside a single
// registered range. This is the per-access validity check on the speculative
// load/store path, so it is lock-free.
func (r *Registry) Contains(p Addr, n int) bool {
	if p == NilAddr || n <= 0 {
		return false
	}
	end := p + Addr(n)
	rs := *r.ranges.Load()
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End > p })
	return i < len(rs) && rs[i].Start <= p && end <= rs[i].End
}
