package mem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegistryEmpty(t *testing.T) {
	r := NewRegistry()
	if r.Contains(8, 1) {
		t.Fatal("empty registry contains an address")
	}
	if len(rangesOf(r)) != 0 {
		t.Fatal("empty registry has ranges")
	}
}

func TestRegistryRejectsBadRanges(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NilAddr, 8); err == nil {
		t.Error("registering the nil address succeeded")
	}
	if err := r.Register(8, 0); err == nil {
		t.Error("registering zero bytes succeeded")
	}
	if err := r.Register(8, -8); err == nil {
		t.Error("registering negative bytes succeeded")
	}
	if err := r.Deregister(NilAddr, 8); err == nil {
		t.Error("deregistering the nil address succeeded")
	}
}

func TestRegistryBasicContains(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(100, 50); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Addr
		n    int
		want bool
	}{
		{100, 50, true}, {100, 1, true}, {149, 1, true},
		{149, 2, false}, {150, 1, false}, {99, 1, false},
		{99, 2, false}, {120, 10, true}, {0, 1, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p, c.n); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestRegistryMergesAdjacent(t *testing.T) {
	r := NewRegistry()
	r.Register(100, 50)
	r.Register(150, 50) // exactly adjacent
	if len(rangesOf(r)) != 1 {
		t.Fatalf("adjacent ranges not merged: %v", rangesOf(r))
	}
	if !r.Contains(100, 100) {
		t.Fatal("merged range not contiguous")
	}
	r.Register(300, 10)
	if len(rangesOf(r)) != 2 {
		t.Fatalf("disjoint range merged: %v", rangesOf(r))
	}
	r.Register(200, 100) // bridges the gap [200,300)
	if len(rangesOf(r)) != 1 {
		t.Fatalf("bridge did not merge everything: %v", rangesOf(r))
	}
	if !r.Contains(100, 210) {
		t.Fatal("bridged range not contiguous")
	}
}

func TestRegistryMergeOverlapping(t *testing.T) {
	r := NewRegistry()
	r.Register(100, 100)
	r.Register(150, 100) // overlaps tail
	if len(rangesOf(r)) != 1 || !r.Contains(100, 150) {
		t.Fatalf("overlap not merged: %v", rangesOf(r))
	}
	r.Register(50, 500) // swallows everything
	if len(rangesOf(r)) != 1 || !r.Contains(50, 500) {
		t.Fatalf("swallow not merged: %v", rangesOf(r))
	}
}

func TestRegistryDeregisterSplits(t *testing.T) {
	r := NewRegistry()
	r.Register(100, 100)
	r.Deregister(140, 20)
	if len(rangesOf(r)) != 2 {
		t.Fatalf("split produced %d ranges: %v", len(rangesOf(r)), rangesOf(r))
	}
	if !r.Contains(100, 40) || !r.Contains(160, 40) {
		t.Fatal("split halves missing")
	}
	if r.Contains(139, 2) || r.Contains(140, 1) || r.Contains(159, 1) {
		t.Fatal("hole still contained")
	}
}

func TestRegistryDeregisterWholeAndEdges(t *testing.T) {
	r := NewRegistry()
	r.Register(100, 100)
	r.Deregister(100, 100)
	if len(rangesOf(r)) != 0 {
		t.Fatalf("full deregister left %v", rangesOf(r))
	}
	r.Register(100, 100)
	r.Deregister(100, 30) // trim head
	r.Deregister(170, 30) // trim tail
	if !r.Contains(130, 40) || r.Contains(100, 31) || r.Contains(169, 2) {
		t.Fatalf("edge trims wrong: %v", rangesOf(r))
	}
}

func TestRegistryDeregisterUnregisteredIsNoop(t *testing.T) {
	r := NewRegistry()
	r.Register(100, 10)
	if err := r.Deregister(500, 10); err != nil {
		t.Fatalf("deregistering unknown space errored: %v", err)
	}
	if !r.Contains(100, 10) {
		t.Fatal("unrelated deregister damaged range")
	}
}

// rangesOf is the registered range set in address order.
func rangesOf(r *Registry) []Range { return *r.ranges.Load() }

// refIntervals is a brute-force model: a byte set.
type refIntervals map[Addr]bool

func (m refIntervals) register(p Addr, n int) {
	for i := 0; i < n; i++ {
		m[p+Addr(i)] = true
	}
}
func (m refIntervals) deregister(p Addr, n int) {
	for i := 0; i < n; i++ {
		delete(m, p+Addr(i))
	}
}
func (m refIntervals) contains(p Addr, n int) bool {
	if n <= 0 || p == NilAddr {
		return false
	}
	for i := 0; i < n; i++ {
		if !m[p+Addr(i)] {
			return false
		}
	}
	return true
}

// Property: registry membership matches the brute-force byte-set model under
// random register/deregister sequences. Note Contains additionally requires
// a *single* registered range, but since Register merges adjacent ranges,
// contiguous byte membership is exactly single-range membership.
func TestQuickRegistryMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		ref := refIntervals{}
		for op := 0; op < 200; op++ {
			p := Addr(1 + rng.Intn(400))
			n := 1 + rng.Intn(40)
			if rng.Intn(2) == 0 {
				reg.Register(p, n)
				ref.register(p, n)
			} else {
				reg.Deregister(p, n)
				ref.deregister(p, n)
			}
			// Probe random intervals.
			for probe := 0; probe < 10; probe++ {
				q := Addr(1 + rng.Intn(450))
				m := 1 + rng.Intn(20)
				if reg.Contains(q, m) != ref.contains(q, m) {
					t.Logf("mismatch at Contains(%d,%d): reg=%v ref=%v after op %d",
						q, m, reg.Contains(q, m), ref.contains(q, m), op)
					return false
				}
			}
		}
		// Ranges must be sorted, non-empty, non-touching.
		rs := rangesOf(reg)
		for i, rg := range rs {
			if rg.Len() <= 0 {
				return false
			}
			if i > 0 && rs[i-1].End >= rg.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent readers during writer churn must never observe torn state
// (verified under -race).
func TestRegistryConcurrentReaders(t *testing.T) {
	r := NewRegistry()
	r.Register(1000, 1000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Contains(1500, 8)
					r.Contains(1, 1)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		r.Register(Addr(3000+i*16), 8)
		if i%3 == 0 {
			r.Deregister(Addr(3000+i*16), 8)
		}
	}
	close(stop)
	wg.Wait()
	if !r.Contains(1000, 1000) {
		t.Fatal("base range lost")
	}
}
