package gbuf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mem"
)

// Micro-benchmarks guarding the per-access and per-range cost of every
// backend (run with -benchmem: the range hot paths must stay alloc-free in
// steady state). Each iteration moves 1 KiB (128 words) through the buffer;
// the word-loop variants are the pre-bulk cost for comparison.

const benchWords = 128 // 1 KiB

func benchBackend(tb testing.TB, name string) Backend {
	tb.Helper()
	arena, err := mem.NewArena(1 << 20)
	if err != nil {
		tb.Fatal(err)
	}
	be, err := NewBackend(arena, Config{Backend: name}.WithDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	return be
}

func forEachBenchBackend(b *testing.B, fn func(b *testing.B, be Backend)) {
	for _, name := range Backends() {
		name := name
		b.Run(name, func(b *testing.B) {
			be := benchBackend(b, name)
			b.SetBytes(benchWords * mem.Word)
			b.ReportAllocs()
			fn(b, be)
		})
	}
}

func BenchmarkStoreRange1KiB(b *testing.B) {
	src := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		be.StoreRange(64, src) // steady state: the set is warm after this
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := be.StoreRange(64, src); st != OK {
				b.Fatal(st)
			}
		}
	})
}

func BenchmarkStoreWordLoop1KiB(b *testing.B) {
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < benchWords; k++ {
				if st := be.Store(64+mem.Addr(k*mem.Word), mem.Word, uint64(k)); st != OK {
					b.Fatal(st)
				}
			}
		}
	})
}

func BenchmarkLoadRange1KiB(b *testing.B) {
	dst := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		be.LoadRange(64, dst) // warm the read set
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := be.LoadRange(64, dst); st != OK {
				b.Fatal(st)
			}
		}
	})
}

func BenchmarkLoadWordLoop1KiB(b *testing.B) {
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < benchWords; k++ {
				if _, st := be.Load(64+mem.Addr(k*mem.Word), mem.Word); st != OK {
					b.Fatal(st)
				}
			}
		}
	})
}

// BenchmarkSpeculationCycle1KiB measures the full store/validate/commit/
// finalize cycle with range accesses — the whole-speculation cost the
// range-aware walks are for.
func BenchmarkSpeculationCycle1KiB(b *testing.B) {
	buf := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.LoadRange(4096, buf)
			be.StoreRange(64, buf)
			if !be.Validate() {
				b.Fatal("validation failed")
			}
			be.Commit(nil)
			be.Finalize()
		}
	})
}

// TestRangeHotPathAllocFree asserts the acceptance criterion directly:
// steady-state LoadRange/StoreRange allocate nothing on any backend.
func TestRangeHotPathAllocFree(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			be := benchBackend(t, name)
			buf := make([]byte, benchWords*mem.Word)
			// Warm the sets: lazily allocated pages/entries settle here.
			be.StoreRange(64, buf)
			be.LoadRange(4096, buf)
			allocs := testing.AllocsPerRun(100, func() {
				if st := be.StoreRange(64, buf); st != OK {
					t.Fatal(st)
				}
				if st := be.LoadRange(4096, buf); st != OK {
					t.Fatal(st)
				}
			})
			if allocs != 0 {
				t.Fatalf("range hot path allocates %.1f objects per op", allocs)
			}
		})
	}
}

// TestSpeculationCycleAllocFree: once its pages exist, a whole speculation —
// range load, range store, own-write re-load, validation, commit,
// finalize — allocates nothing on any backend: bitmap pages recycle through
// the free list and the flat page table never grows.
func TestSpeculationCycleAllocFree(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			be := benchBackend(t, name)
			buf := make([]byte, benchWords*mem.Word)
			cycle := func() {
				ok := be.LoadRange(4096, buf) == OK && be.StoreRange(64, buf) == OK &&
					be.LoadRange(64, buf) == OK && be.Validate()
				if !ok {
					t.Fatal("cycle failed")
				}
				be.Commit(nil)
				be.Finalize()
			}
			cycle() // warm: lazily allocated pages/entries settle here
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("a warmed speculation cycle allocates %.1f objects", allocs)
			}
		})
	}
}

// BenchmarkFinalize times Finalize alone after a speculation that buffered
// the given number of words in each set. The sets are refilled off the
// clock, so the figure is the finalize-ns/op metric (it includes one clock
// read, ~25 ns), not ns/op; divide by 2*words for the ladder's per-word one.
func BenchmarkFinalize(b *testing.B) {
	for _, words := range []int{1, 128, 4096} { // one word, 1 KiB, 32 KiB per set
		buf := make([]byte, words*mem.Word)
		b.Run(fmt.Sprintf("%dwords", words), func(b *testing.B) {
			forEachBenchBackend(b, func(b *testing.B, be Backend) {
				b.SetBytes(0) // ns/op is mostly the refill
				var total time.Duration
				for i := 0; i < b.N; i++ {
					be.StoreRange(64, buf)
					be.LoadRange(1<<16, buf)
					start := time.Now()
					be.Finalize()
					total += time.Since(start)
				}
				b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "finalize-ns/op")
			})
		})
	}
}

// BenchmarkLoadRangeOwnWrites1KiB re-reads a range the speculation has just
// stored — fft's in-place butterfly shape.
func BenchmarkLoadRangeOwnWrites1KiB(b *testing.B) {
	buf := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		be.StoreRange(64, buf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := be.LoadRange(64, buf); st != OK {
				b.Fatal(st)
			}
		}
	})
}
