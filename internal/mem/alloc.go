package mem

import (
	"fmt"
	"sort"
)

// Allocator is a first-fit free-list allocator over an arena region. It
// stands in for the memory-management library calls the paper intercepts
// ("malloc" in C, "_gfortran_internal_malloc" in Fortran, "_Znwm" in C++):
// every allocation registers its space in the registry and every free
// deregisters it, which is how the GlobalBuffer distinguishes valid heap
// addresses from garbage pointers.
//
// Allocation metadata lives outside the arena (a map from address to block
// size), so buffered speculative writes can never corrupt the allocator.
// The allocator is single-threaded by design: the paper disallows
// speculative threads from allocating or deallocating memory because they
// may roll back, so only the non-speculative thread ever calls it.
type Allocator struct {
	reg   *Registry
	free  []Range      // sorted, coalesced free blocks
	sizes map[Addr]int // live allocation sizes
	start Addr         // start of the managed region (word-aligned)
	limit Addr         // end of the managed region
	inUse int          // live bytes
}

// NewAllocator manages [start, start+size) of an arena, registering
// allocations with reg. The region must not include address 0.
func NewAllocator(reg *Registry, start Addr, size int) (*Allocator, error) {
	if start == NilAddr {
		return nil, fmt.Errorf("mem: allocator region may not start at the nil address")
	}
	if size < Word {
		return nil, fmt.Errorf("mem: allocator region too small (%d bytes)", size)
	}
	// Keep every block word-aligned.
	aligned := alignUp(start)
	size -= int(aligned - start)
	size &^= Word - 1
	if size < Word {
		return nil, fmt.Errorf("mem: allocator region too small after alignment")
	}
	return &Allocator{
		reg:   reg,
		free:  []Range{{aligned, aligned + Addr(size)}},
		sizes: make(map[Addr]int),
		start: aligned,
		limit: aligned + Addr(size),
	}, nil
}

// Reset releases every live allocation at once, deregistering their space
// and restoring the whole region as one free block. It is the heap-recycle
// hook for runtime pooling: a served run that leaked allocations (an
// aborted kernel, a cancelled request unwinding past its frees) must not
// shrink the heap available to the next tenant of the same runtime.
// Addresses handed out before Reset are invalid afterwards.
func (al *Allocator) Reset() error {
	for p, size := range al.sizes {
		if err := al.reg.Deregister(p, size); err != nil {
			return err
		}
	}
	clear(al.sizes)
	al.inUse = 0
	al.free = al.free[:0]
	al.free = append(al.free, Range{al.start, al.limit})
	return nil
}

func alignUp(p Addr) Addr { return (p + Word - 1) &^ (Word - 1) }

// Alloc returns the address of a fresh n-byte block (rounded up to whole
// words) and registers its space. It returns NilAddr and an error when the
// region is exhausted.
func (al *Allocator) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return NilAddr, fmt.Errorf("mem: alloc of %d bytes", n)
	}
	need := (n + Word - 1) &^ (Word - 1)
	for i, blk := range al.free {
		if blk.Len() < need {
			continue
		}
		p := blk.Start
		rest := Range{blk.Start + Addr(need), blk.End}
		if rest.Len() == 0 {
			al.free = append(al.free[:i], al.free[i+1:]...)
		} else {
			al.free[i] = rest
		}
		al.sizes[p] = need
		al.inUse += need
		if err := al.reg.Register(p, need); err != nil {
			return NilAddr, err
		}
		return p, nil
	}
	return NilAddr, fmt.Errorf("mem: out of memory allocating %d bytes (%d in use)", n, al.inUse)
}

// Free releases the block at p, deregisters its space and coalesces it with
// neighbouring free blocks.
func (al *Allocator) Free(p Addr) error {
	size, ok := al.sizes[p]
	if !ok {
		return fmt.Errorf("mem: free of unallocated address %d", p)
	}
	delete(al.sizes, p)
	al.inUse -= size
	if err := al.reg.Deregister(p, size); err != nil {
		return err
	}
	blk := Range{p, p + Addr(size)}
	i := sort.Search(len(al.free), func(i int) bool { return al.free[i].Start >= blk.Start })
	al.free = append(al.free, Range{})
	copy(al.free[i+1:], al.free[i:])
	al.free[i] = blk
	// Coalesce with successor then predecessor.
	if i+1 < len(al.free) && al.free[i].End == al.free[i+1].Start {
		al.free[i].End = al.free[i+1].End
		al.free = append(al.free[:i+1], al.free[i+2:]...)
	}
	if i > 0 && al.free[i-1].End == al.free[i].Start {
		al.free[i-1].End = al.free[i].End
		al.free = append(al.free[:i], al.free[i+1:]...)
	}
	return nil
}

// InUse returns the number of live allocated bytes.
func (al *Allocator) InUse() int { return al.inUse }
