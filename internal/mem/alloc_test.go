package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestAllocator(t *testing.T, size int) (*Allocator, *Registry) {
	t.Helper()
	reg := NewRegistry()
	al, err := NewAllocator(reg, 64, size)
	if err != nil {
		t.Fatal(err)
	}
	return al, reg
}

func TestAllocatorBasics(t *testing.T) {
	al, reg := newTestAllocator(t, 1024)
	p, err := al.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if p == NilAddr || p%Word != 0 {
		t.Fatalf("Alloc returned unaligned or nil address %d", p)
	}
	if al.InUse() != 16 { // 10 rounded up to words
		t.Fatalf("InUse = %d, want 16", al.InUse())
	}
	if !reg.Contains(p, 10) {
		t.Fatal("allocation not registered")
	}
	if err := al.Free(p); err != nil {
		t.Fatal(err)
	}
	if reg.Contains(p, 1) {
		t.Fatal("freed allocation still registered")
	}
}

func TestAllocatorRejectsBadSizes(t *testing.T) {
	al, _ := newTestAllocator(t, 1024)
	if _, err := al.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := al.Alloc(-5); err == nil {
		t.Error("Alloc(-5) succeeded")
	}
}

func TestAllocatorDoubleFree(t *testing.T) {
	al, _ := newTestAllocator(t, 1024)
	p, _ := al.Alloc(8)
	if err := al.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := al.Free(p); err == nil {
		t.Fatal("double free succeeded")
	}
	if err := al.Free(12345); err == nil {
		t.Fatal("free of wild address succeeded")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al, _ := newTestAllocator(t, 64)
	if _, err := al.Alloc(65); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	p, err := al.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc(1); err == nil {
		t.Fatal("alloc from empty region succeeded")
	}
	al.Free(p)
	if _, err := al.Alloc(64); err != nil {
		t.Fatalf("free did not recycle space: %v", err)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	al, _ := newTestAllocator(t, 3*Word)
	a, _ := al.Alloc(Word)
	b, _ := al.Alloc(Word)
	c, _ := al.Alloc(Word)
	// Free in an order that requires both successor and predecessor merges.
	al.Free(a)
	al.Free(c)
	if p, err := al.Alloc(2 * Word); err == nil {
		t.Fatalf("two one-word holes served a two-word block at %d", p)
	}
	al.Free(b)
	if _, err := al.Alloc(3 * Word); err != nil {
		t.Fatalf("coalesced block not allocatable: %v", err)
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	al, _ := newTestAllocator(t, 4096)
	type blk struct {
		p Addr
		n int
	}
	var live []blk
	for i := 0; i < 50; i++ {
		n := 8 * (1 + i%7)
		p, err := al.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range live {
			if p < b.p+Addr(b.n) && b.p < p+Addr(n) {
				t.Fatalf("allocation [%d,+%d) overlaps [%d,+%d)", p, n, b.p, b.n)
			}
		}
		live = append(live, blk{p, n})
	}
}

func TestAllocatorInUseAccounting(t *testing.T) {
	al, _ := newTestAllocator(t, 1024)
	p1, _ := al.Alloc(24)
	p2, _ := al.Alloc(8)
	if al.InUse() != 32 {
		t.Fatalf("InUse = %d, want 32", al.InUse())
	}
	al.Free(p1)
	if al.InUse() != 8 {
		t.Fatalf("InUse after free = %d, want 8", al.InUse())
	}
	al.Free(p2)
	if al.InUse() != 0 {
		t.Fatalf("InUse after all frees = %d, want 0", al.InUse())
	}
}

func TestNewAllocatorRejectsNilStart(t *testing.T) {
	if _, err := NewAllocator(NewRegistry(), NilAddr, 1024); err == nil {
		t.Fatal("allocator at nil address succeeded")
	}
	if _, err := NewAllocator(NewRegistry(), 64, 4); err == nil {
		t.Fatal("tiny allocator region succeeded")
	}
}

func TestNewAllocatorAlignsStart(t *testing.T) {
	reg := NewRegistry()
	al, err := NewAllocator(reg, 13, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := al.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if p%Word != 0 {
		t.Fatalf("first allocation %d unaligned", p)
	}
}

// Property: random alloc/free sequences never leak, never overlap, always
// fully coalesce when everything is freed (the whole region is one block
// again), and keep the registry in sync.
func TestQuickAllocatorRandomChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		const capacity = 1 << 14
		al, err := NewAllocator(reg, 64, capacity)
		if err != nil {
			return false
		}
		live := map[Addr]int{}
		for op := 0; op < 300; op++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				n := 1 + rng.Intn(200)
				p, err := al.Alloc(n)
				if err != nil {
					continue // exhausted is fine
				}
				if !reg.Contains(p, n) {
					return false
				}
				live[p] = n
			} else {
				var victim Addr
				for p := range live {
					victim = p
					break
				}
				if al.Free(victim) != nil {
					return false
				}
				if reg.Contains(victim, 1) {
					return false
				}
				delete(live, victim)
			}
		}
		for p := range live {
			if al.Free(p) != nil {
				return false
			}
		}
		if al.InUse() != 0 {
			return false
		}
		p, err := al.Alloc(capacity)
		return err == nil && reg.Contains(p, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
