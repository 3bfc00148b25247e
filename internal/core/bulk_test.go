package core

import (
	"runtime"
	"testing"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// TestBulkAccessorsRoundTrip checks the typed slice accessors and the
// rebuilt LoadBytes/StoreBytes against the scalar accessors on the
// non-speculative thread.
func TestBulkAccessorsRoundTrip(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(1024)

		fs := []float64{1.5, -2.25, 3.75, 1e-9}
		t0.StoreFloat64s(p, fs)
		for i, want := range fs {
			if got := t0.LoadFloat64(p + mem.Addr(8*i)); got != want {
				t.Fatalf("float64 %d = %v, want %v", i, got, want)
			}
		}
		back := make([]float64, len(fs))
		t0.LoadFloat64s(p, back)
		for i := range fs {
			if back[i] != fs[i] {
				t.Fatalf("LoadFloat64s %d = %v, want %v", i, back[i], fs[i])
			}
		}

		is := []int64{-1, 42, 1 << 50, 0}
		t0.StoreInt64s(p+256, is)
		iback := make([]int64, len(is))
		t0.LoadInt64s(p+256, iback)
		for i := range is {
			if iback[i] != is[i] {
				t.Fatalf("LoadInt64s %d = %d, want %d", i, iback[i], is[i])
			}
		}

		ws := []uint64{0xDEADBEEF, ^uint64(0), 7}
		t0.StoreWords(p+512, ws)
		wback := make([]uint64, len(ws))
		t0.LoadWords(p+512, wback)
		for i := range ws {
			if wback[i] != ws[i] {
				t.Fatalf("LoadWords %d = %#x, want %#x", i, wback[i], ws[i])
			}
		}

		// Misaligned byte spans: head/tail decomposition round trip.
		src := make([]byte, 61)
		for i := range src {
			src[i] = byte(3*i + 1)
		}
		t0.StoreBytes(p+5, src)
		dst := make([]byte, len(src))
		t0.LoadBytes(p+5, dst)
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("byte %d = %#x, want %#x", i, dst[i], src[i])
			}
			if got := t0.LoadUint8(p + 5 + mem.Addr(i)); got != src[i] {
				t.Fatalf("scalar byte %d = %#x, want %#x", i, got, src[i])
			}
		}
	})
}

// TestBulkChargesPerDecomposedGroup is the regression test for the
// misaligned head/tail charging fix: an n-byte span charges one access per
// decomposed group of the paper's size>WORD splitting rule (maximal
// aligned sub-accesses plus one charge per middle word), not one per byte.
func TestBulkChargesPerDecomposedGroup(t *testing.T) {
	rt := newRT(t, 1, nil)
	model := rt.Options().Cost
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(2048)
		off := p + 5 - mem.Addr(uint64(p)%8) // off ≡ 5 (mod 8)
		buf := make([]byte, 16)

		// [off, off+16) decomposes into 1@+0, 2@+1, word@+3, 4@+11, 1@+15:
		// five access groups (the old per-byte fallback charged nine).
		const groups = 5
		before := t0.Now()
		t0.LoadBytes(off, buf)
		if d := t0.Now() - before; d != groups*model.DirectAccess {
			t.Fatalf("misaligned LoadBytes charged %d, want %d groups x %d",
				d, groups, model.DirectAccess)
		}
		before = t0.Now()
		t0.StoreBytes(off, buf)
		if d := t0.Now() - before; d != groups*model.DirectAccess {
			t.Fatalf("misaligned StoreBytes charged %d, want %d groups x %d",
				d, groups, model.DirectAccess)
		}

		// An aligned 1 KiB span charges exactly its 128 words, batched.
		big := make([]byte, 1024)
		wordBase := p + 8 - mem.Addr(uint64(p)%8)
		before = t0.Now()
		t0.LoadBytes(wordBase, big)
		if d := t0.Now() - before; d != 128*model.DirectAccess {
			t.Fatalf("aligned LoadBytes charged %d, want %d", d, 128*model.DirectAccess)
		}
	})
}

// TestBulkChargesSpeculative checks the same charging contract on the
// buffered path: a speculative 1 KiB aligned span costs 128 BufferedAccess
// units in one batched charge, and a misaligned span costs its groups.
func TestBulkChargesSpeculative(t *testing.T) {
	rt := newRT(t, 1, nil)
	model := rt.Options().Cost
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(2048)
		wordBase := p + 8 - mem.Addr(uint64(p)%8)
		ranks := []Rank{0}
		h := t0.Fork(ranks, 0, OutOfOrder)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.SetRegvarAddr(0, wordBase)
		h.Start(func(c *Thread) uint32 {
			base := c.GetRegvarAddr(0)
			buf := make([]byte, 1024)
			before := c.Now()
			c.LoadBytes(base, buf)
			c.SaveRegvarInt64(1, int64(c.Now()-before))
			before = c.Now()
			c.StoreBytes(base+5, buf[:16])
			c.SaveRegvarInt64(2, int64(c.Now()-before))
			return 0
		})
		res := t0.Join(ranks, 0)
		if !res.Committed() {
			t.Fatalf("join: %v (%v)", res.Status, res.Reason)
		}
		if d := res.RegvarInt64(1); d != 128*model.BufferedAccess {
			t.Fatalf("speculative aligned LoadBytes charged %d, want %d",
				d, 128*model.BufferedAccess)
		}
		if d := res.RegvarInt64(2); d != 5*model.BufferedAccess {
			t.Fatalf("speculative misaligned StoreBytes charged %d, want 5 x %d",
				d, model.BufferedAccess)
		}
	})
}

// TestBulkSpeculativeCommit drives typed bulk stores through a speculative
// region on every backend and checks the committed memory and the
// sequential equivalence with scalar stores.
func TestBulkSpeculativeCommit(t *testing.T) {
	for _, backend := range gbuf.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			rt := newRT(t, 1, func(o *Options) {
				o.GBuf = gbuf.Config{Backend: backend}
			})
			rt.Run(func(t0 *Thread) {
				p := t0.Alloc(1024)
				n := 64
				ranks := []Rank{0}
				h := t0.Fork(ranks, 0, OutOfOrder)
				if h == nil {
					t.Fatal("fork refused")
				}
				h.SetRegvarAddr(0, p)
				h.Start(func(c *Thread) uint32 {
					base := c.GetRegvarAddr(0)
					vals := make([]float64, n)
					c.LoadFloat64s(base, vals) // snapshot the zeroed range
					for i := range vals {
						vals[i] += float64(i) * 1.25
					}
					c.StoreFloat64s(base, vals)
					return 0
				})
				res := t0.Join(ranks, 0)
				if !res.Committed() {
					t.Fatalf("join: %v (%v)", res.Status, res.Reason)
				}
				for i := 0; i < n; i++ {
					want := float64(i) * 1.25
					if got := t0.LoadFloat64(p + mem.Addr(8*i)); got != want {
						t.Fatalf("committed word %d = %v, want %v", i, got, want)
					}
				}
			})
		})
	}
}

// refLoadBytes/refStoreBytes replicate the pre-bulk LoadBytes/StoreBytes
// (per-byte head/tail, one buffered access per word, per-byte packing) as
// the comparison baseline for the throughput benchmarks below.
func refLoadBytes(t *Thread, p mem.Addr, dst []byte) {
	i := 0
	n := len(dst)
	for i < n && !mem.Aligned(p+mem.Addr(i), mem.Word) {
		dst[i] = t.LoadUint8(p + mem.Addr(i))
		i++
	}
	for ; i+mem.Word <= n; i += mem.Word {
		v := t.load(p+mem.Addr(i), mem.Word)
		for b := 0; b < mem.Word; b++ {
			dst[i+b] = byte(v >> (8 * b))
		}
	}
	for ; i < n; i++ {
		dst[i] = t.LoadUint8(p + mem.Addr(i))
	}
}

func refStoreBytes(t *Thread, p mem.Addr, src []byte) {
	i := 0
	n := len(src)
	for i < n && !mem.Aligned(p+mem.Addr(i), mem.Word) {
		t.StoreUint8(p+mem.Addr(i), src[i])
		i++
	}
	for ; i+mem.Word <= n; i += mem.Word {
		var v uint64
		for b := mem.Word - 1; b >= 0; b-- {
			v = v<<8 | uint64(src[i+b])
		}
		t.store(p+mem.Addr(i), mem.Word, v)
	}
	for ; i < n; i++ {
		t.StoreUint8(p+mem.Addr(i), src[i])
	}
}

// benchSpecBytes runs fn inside one speculative region (p points at a
// 4 KiB heap block) so the buffered path — not fork/join — is what the
// timer sees.
func benchSpecBytes(b *testing.B, backend string, fn func(c *Thread, b *testing.B, p mem.Addr)) {
	rt := newRT(b, 1, func(o *Options) {
		o.GBuf = gbuf.Config{Backend: backend}
		o.Timing = vclock.Virtual
	})
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(4096)
		ranks := []Rank{0}
		h := t0.Fork(ranks, 0, OutOfOrder)
		if h == nil {
			b.Fatal("fork refused")
		}
		h.Start(func(c *Thread) uint32 {
			b.ResetTimer()
			fn(c, b, p)
			b.StopTimer()
			return 0
		})
		if res := t0.Join(ranks, 0); !res.Committed() {
			b.Fatalf("join: %v (%v)", res.Status, res.Reason)
		}
	})
}

// The acceptance benchmarks: aligned 1 KiB StoreBytes/LoadBytes through a
// speculative thread, bulk path vs the pre-bulk word loop, per backend.
func BenchmarkThreadStoreBytes1KiB(b *testing.B) {
	for _, backend := range gbuf.Backends() {
		b.Run(backend, func(b *testing.B) {
			benchSpecBytes(b, backend, func(c *Thread, b *testing.B, p mem.Addr) {
				src := make([]byte, 1024)
				b.SetBytes(1024)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.StoreBytes(p, src)
				}
			})
		})
	}
}

func BenchmarkThreadStoreBytesWordLoop1KiB(b *testing.B) {
	for _, backend := range gbuf.Backends() {
		b.Run(backend, func(b *testing.B) {
			benchSpecBytes(b, backend, func(c *Thread, b *testing.B, p mem.Addr) {
				src := make([]byte, 1024)
				b.SetBytes(1024)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					refStoreBytes(c, p, src)
				}
			})
		})
	}
}

func BenchmarkThreadLoadBytes1KiB(b *testing.B) {
	for _, backend := range gbuf.Backends() {
		b.Run(backend, func(b *testing.B) {
			benchSpecBytes(b, backend, func(c *Thread, b *testing.B, p mem.Addr) {
				dst := make([]byte, 1024)
				c.LoadBytes(p, dst) // warm the read set
				b.SetBytes(1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.LoadBytes(p, dst)
				}
			})
		})
	}
}

func BenchmarkThreadLoadBytesWordLoop1KiB(b *testing.B) {
	for _, backend := range gbuf.Backends() {
		b.Run(backend, func(b *testing.B) {
			benchSpecBytes(b, backend, func(c *Thread, b *testing.B, p mem.Addr) {
				dst := make([]byte, 1024)
				refLoadBytes(c, p, dst)
				b.SetBytes(1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					refLoadBytes(c, p, dst)
				}
			})
		})
	}
}

// BenchmarkThreadFloat64Slice1KiB measures the typed slice views, which
// move the caller's slice itself — must stay alloc-free.
func BenchmarkThreadFloat64Slice1KiB(b *testing.B) {
	for _, backend := range gbuf.Backends() {
		b.Run(backend, func(b *testing.B) {
			benchSpecBytes(b, backend, func(c *Thread, b *testing.B, p mem.Addr) {
				vals := make([]float64, 128)
				c.StoreFloat64s(p, vals)
				b.SetBytes(1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.LoadFloat64s(p, vals)
					c.StoreFloat64s(p, vals)
				}
			})
		})
	}
}

// TestThreadBulkAllocFree pins the zero-alloc contract at the Thread layer:
// the byte and typed bulk accessors allocate nothing on the
// non-speculative thread or on a speculative one, from their very first
// call on. The speculation runs second on its CPU, after one that touched
// the same pages through LoadBytes/StoreBytes, so the GlobalBuffer's pages
// are already pooled.
func TestThreadBulkAllocFree(t *testing.T) {
	buf := make([]byte, 1024)
	w, i64, f64 := make([]uint64, 16), make([]int64, 16), make([]float64, 16)
	i32, f32 := make([]int32, 15), make([]float32, 15)
	ops := func(c *Thread, base mem.Addr) {
		c.StoreBytes(base, buf)
		c.LoadBytes(base, buf)
		c.StoreWords(base+1024, w)
		c.LoadWords(base+1024, w)
		c.StoreInt64s(base+1152, i64)
		c.LoadInt64s(base+1152, i64)
		c.StoreFloat64s(base+1280, f64)
		c.LoadFloat64s(base+1280, f64)
		c.StoreInt32s(base+1412, i32)
		c.LoadInt32s(base+1412, i32)
		c.StoreFloat32s(base+1476, f32)
		c.LoadFloat32s(base+1476, f32)
	}
	check := func(t *testing.T, c *Thread, base mem.Addr) {
		if n := firstAllocs(func() { ops(c, base) }); n != 0 {
			t.Errorf("first bulk calls allocate %d objects", n)
		}
		if n := testing.AllocsPerRun(50, func() { ops(c, base) }); n != 0 {
			t.Errorf("bulk hot path allocates %.1f objects per op", n)
		}
	}
	t.Run("non-speculative", func(t *testing.T) {
		rt := newRT(t, 1, nil)
		rt.Run(func(t0 *Thread) {
			p := t0.Alloc(2048)
			check(t, t0, p+8-mem.Addr(uint64(p)%8))
		})
	})
	t.Run("speculative", func(t *testing.T) {
		rt := newRT(t, 1, nil)
		rt.Run(func(t0 *Thread) {
			p := t0.Alloc(2048)
			base := p + 8 - mem.Addr(uint64(p)%8)
			speculate(t, t0, func(c *Thread) {
				warm := make([]byte, 1536)
				c.LoadBytes(base, warm)
				c.StoreBytes(base, warm)
			})
			speculate(t, t0, func(c *Thread) { check(t, c, base) })
		})
	})
}

// firstAllocs counts the heap allocations of one call of f, as
// testing.AllocsPerRun does but without its warm-up call.
func firstAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
