package mem

import "fmt"

// Space is the full simulated address space as the TLS runtime sees it: one
// arena partitioned into a static segment, a heap managed by the allocator,
// and one stack region per virtual CPU (rank 0 is the non-speculative
// thread). The static segment, heap objects and the *non-speculative* stack
// are registered as global address space; speculative stacks are not — they
// belong to each thread's LocalBuffer world, and a speculative thread may
// only touch its own (paper §IV-G1/G3).
type Space struct {
	Arena    *Arena
	Registry *Registry
	Heap     *Allocator

	staticBase Addr
	staticEnd  Addr
	staticNext Addr

	stackBase []Addr // per rank, index 0 = non-speculative
	stackSize int
	numStacks int
}

// SpaceConfig sizes the address-space partitions.
type SpaceConfig struct {
	StaticBytes int // static (global variable) segment
	HeapBytes   int // heap segment
	StackBytes  int // per-thread stack segment
	NumThreads  int // stacks to carve out: ranks 0..NumThreads-1... rank 0 is the non-speculative thread
}

// DefaultSpaceConfig returns a configuration suitable for the benchmarks:
// 1 MiB static, 64 MiB heap, 256 KiB stacks.
func DefaultSpaceConfig(numThreads int) SpaceConfig {
	return SpaceConfig{
		StaticBytes: 1 << 20,
		HeapBytes:   64 << 20,
		StackBytes:  256 << 10,
		NumThreads:  numThreads,
	}
}

// NewSpace lays out and returns a fresh address space.
func NewSpace(cfg SpaceConfig) (*Space, error) {
	if cfg.NumThreads < 1 {
		return nil, fmt.Errorf("mem: need at least one thread stack")
	}
	if cfg.StaticBytes < Word || cfg.HeapBytes < Word || cfg.StackBytes < Word {
		return nil, fmt.Errorf("mem: degenerate space config %+v", cfg)
	}
	staticBytes := (cfg.StaticBytes + Word - 1) &^ (Word - 1)
	heapBytes := (cfg.HeapBytes + Word - 1) &^ (Word - 1)
	stackBytes := (cfg.StackBytes + Word - 1) &^ (Word - 1)
	total := Word + staticBytes + heapBytes + stackBytes*cfg.NumThreads
	arena, err := NewArena(total)
	if err != nil {
		return nil, err
	}
	reg := NewRegistry()
	s := &Space{
		Arena:     arena,
		Registry:  reg,
		stackSize: stackBytes,
		numStacks: cfg.NumThreads,
	}
	// Address 0..Word-1 reserved as the nil page.
	s.staticBase = Addr(Word)
	s.staticEnd = s.staticBase + Addr(staticBytes)
	s.staticNext = s.staticBase
	if err := reg.Register(s.staticBase, staticBytes); err != nil {
		return nil, err
	}
	heapBase := s.staticEnd
	heap, err := NewAllocator(reg, heapBase, heapBytes)
	if err != nil {
		return nil, err
	}
	s.Heap = heap
	stacksBase := heapBase + Addr(heapBytes)
	s.stackBase = make([]Addr, cfg.NumThreads)
	for i := 0; i < cfg.NumThreads; i++ {
		s.stackBase[i] = stacksBase + Addr(i*stackBytes)
	}
	// The non-speculative stack is part of the global address space.
	if err := reg.Register(s.stackBase[0], stackBytes); err != nil {
		return nil, err
	}
	return s, nil
}

// Static carves an n-byte object out of the static segment. Static objects
// live for the whole program, exactly like globals registered "at the
// beginning of program execution" in the paper.
func (s *Space) Static(n int) (Addr, error) {
	need := Addr((n + Word - 1) &^ (Word - 1))
	if s.staticNext+need > s.staticEnd {
		return NilAddr, fmt.Errorf("mem: static segment exhausted (%d requested)", n)
	}
	p := s.staticNext
	s.staticNext += need
	return p, nil
}

// StackRegion returns the [base, base+size) stack region of the given rank.
// Rank 0 is the non-speculative thread.
func (s *Space) StackRegion(rank int) (Range, error) {
	if rank < 0 || rank >= s.numStacks {
		return Range{}, fmt.Errorf("mem: no stack for rank %d", rank)
	}
	base := s.stackBase[rank]
	return Range{base, base + Addr(s.stackSize)}, nil
}

// InGlobal reports whether [p,p+n) is valid global space (static, live heap
// or non-speculative stack).
func (s *Space) InGlobal(p Addr, n int) bool { return s.Registry.Contains(p, n) }
