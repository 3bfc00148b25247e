package mem

import "testing"

func newTestSpace(t *testing.T, threads int) *Space {
	t.Helper()
	s, err := NewSpace(SpaceConfig{
		StaticBytes: 1 << 10,
		HeapBytes:   1 << 14,
		StackBytes:  1 << 10,
		NumThreads:  threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceLayoutDisjoint(t *testing.T) {
	s := newTestSpace(t, 4)
	st, err := s.Static(64)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := s.Heap.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	regions := []Range{{st, st + 64}, {hp, hp + 64}}
	for r := 0; r < 4; r++ {
		sr, err := s.StackRegion(r)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, sr)
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.Start < b.End && b.Start < a.End {
				t.Fatalf("regions %d and %d overlap: %v %v", i, j, a, b)
			}
		}
	}
}

func TestSpaceNilPageUnmapped(t *testing.T) {
	s := newTestSpace(t, 1)
	if s.InGlobal(NilAddr, 1) {
		t.Fatal("nil address is global")
	}
	st, _ := s.Static(8)
	if st == NilAddr {
		t.Fatal("static object at nil address")
	}
}

func TestSpaceGlobalMembership(t *testing.T) {
	s := newTestSpace(t, 3)
	st, _ := s.Static(32)
	if !s.InGlobal(st, 32) {
		t.Error("static object not global")
	}
	hp, _ := s.Heap.Alloc(32)
	if !s.InGlobal(hp, 32) {
		t.Error("heap object not global")
	}
	s.Heap.Free(hp)
	if s.InGlobal(hp, 1) {
		t.Error("freed heap object still global")
	}
	// Non-speculative stack (rank 0) is global; speculative stacks are not.
	r0, _ := s.StackRegion(0)
	if !s.InGlobal(r0.Start, r0.Len()) {
		t.Error("non-speculative stack not global")
	}
	r1, _ := s.StackRegion(1)
	if s.InGlobal(r1.Start, 1) {
		t.Error("speculative stack is global")
	}
	r2, _ := s.StackRegion(2)
	if s.InGlobal(r2.Start, 1) {
		t.Error("speculative stack 2 is global")
	}
}

func TestSpaceStaticExhaustion(t *testing.T) {
	s := newTestSpace(t, 1)
	if _, err := s.Static(1 << 11); err == nil {
		t.Fatal("oversized static allocation succeeded")
	}
	for i := 0; i < (1<<10)/Word; i++ {
		if _, err := s.Static(Word); err != nil {
			t.Fatalf("static segment exhausted early at %d: %v", i, err)
		}
	}
	if _, err := s.Static(Word); err == nil {
		t.Fatal("static segment over-allocated")
	}
}

func TestSpaceStackRegionBounds(t *testing.T) {
	s := newTestSpace(t, 2)
	if _, err := s.StackRegion(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := s.StackRegion(2); err == nil {
		t.Error("out-of-range rank accepted")
	}
	r, err := s.StackRegion(1)
	if err != nil || r.Len() != 1<<10 {
		t.Errorf("stack region %v (%v), want the configured 1 KiB", r, err)
	}
}

func TestSpaceConfigValidation(t *testing.T) {
	if _, err := NewSpace(SpaceConfig{StaticBytes: 64, HeapBytes: 64, StackBytes: 64, NumThreads: 0}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewSpace(SpaceConfig{StaticBytes: 0, HeapBytes: 64, StackBytes: 64, NumThreads: 1}); err == nil {
		t.Error("zero static accepted")
	}
}

func TestDefaultSpaceConfig(t *testing.T) {
	cfg := DefaultSpaceConfig(8)
	if cfg.NumThreads != 8 || cfg.HeapBytes <= 0 {
		t.Fatalf("bad default config %+v", cfg)
	}
	if _, err := NewSpace(cfg); err != nil {
		t.Fatal(err)
	}
}
