package core

import (
	"testing"

	"repro/internal/gbuf"
	"repro/internal/mem"
	"repro/internal/stats"
)

// TestSubWordSlicesRoundTrip checks the float32/int32 slice views against
// the scalar accessors on the non-speculative thread, including 4-aligned
// (but not word-aligned) bases that exercise the head/tail decomposition.
func TestSubWordSlicesRoundTrip(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(1024)
		for _, off := range []mem.Addr{0, 4} { // word-aligned and 4-odd bases
			base := p + off
			fs := []float32{1.5, -2.25, 3.75, 1e-9, 0, -0.5, 42}
			t0.StoreFloat32s(base, fs)
			for i, want := range fs {
				if got := t0.LoadFloat32(base + mem.Addr(4*i)); got != want {
					t.Fatalf("off %d: float32 %d = %v, want %v", off, i, got, want)
				}
			}
			back := make([]float32, len(fs))
			t0.LoadFloat32s(base, back)
			for i := range fs {
				if back[i] != fs[i] {
					t.Fatalf("off %d: LoadFloat32s %d = %v, want %v", off, i, back[i], fs[i])
				}
			}

			is := []int32{-1, 42, 1 << 30, 0, -1 << 30}
			t0.StoreInt32s(base+256, is)
			iback := make([]int32, len(is))
			t0.LoadInt32s(base+256, iback)
			for i := range is {
				if iback[i] != is[i] {
					t.Fatalf("off %d: LoadInt32s %d = %d, want %d", off, i, iback[i], is[i])
				}
				if got := t0.LoadInt32(base + 256 + mem.Addr(4*i)); got != is[i] {
					t.Fatalf("off %d: scalar int32 %d = %d, want %d", off, i, got, is[i])
				}
			}
		}
	})
}

// TestSubWordSliceCharges pins the sub-word range contract: a 4-odd base
// charges one 4-byte head access, one batched charge per middle word and
// one 4-byte tail access — never one charge per element.
func TestSubWordSliceCharges(t *testing.T) {
	rt := newRT(t, 1, nil)
	model := rt.Options().Cost
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(2048)
		wordBase := p + 8 - mem.Addr(uint64(p)%8)

		// 32 float32s at a word base: 16 words, one batched range.
		vals := make([]float32, 32)
		before := t0.Now()
		t0.LoadFloat32s(wordBase, vals)
		if d := t0.Now() - before; d != 16*model.DirectAccess {
			t.Fatalf("aligned LoadFloat32s charged %d, want %d", d, 16*model.DirectAccess)
		}

		// 32 float32s at base+4: 4-byte head, 15 words, 4-byte tail = 17
		// access groups.
		before = t0.Now()
		t0.LoadFloat32s(wordBase+4, vals)
		if d := t0.Now() - before; d != 17*model.DirectAccess {
			t.Fatalf("odd-base LoadFloat32s charged %d, want %d", d, 17*model.DirectAccess)
		}
		before = t0.Now()
		t0.StoreInt32s(wordBase+4, make([]int32, 32))
		if d := t0.Now() - before; d != 17*model.DirectAccess {
			t.Fatalf("odd-base StoreInt32s charged %d, want %d", d, 17*model.DirectAccess)
		}
	})
}

// subWordProbe runs one speculative region on a fresh runtime with the
// given backend and returns the run's summary (one committed execution:
// its set peaks are that execution's) plus the final arena bytes of
// [p, p+n).
func subWordProbe(t *testing.T, backend string, n int, region func(c *Thread, base mem.Addr)) (*stats.Summary, []byte) {
	t.Helper()
	rt := newRT(t, 1, func(o *Options) {
		o.GBuf = gbuf.Config{Backend: backend}
	})
	out := make([]byte, n)
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(n + 64)
		base := p + 8 - mem.Addr(uint64(p)%8) + 4 // deliberately 4-odd
		ranks := []Rank{0}
		h := t0.Fork(ranks, 0, OutOfOrder)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.SetRegvarAddr(0, base)
		h.Start(func(c *Thread) uint32 {
			region(c, c.GetRegvarAddr(0))
			return 0
		})
		if res := t0.Join(ranks, 0); !res.Committed() {
			t.Fatalf("join: %v (%v)", res.Status, res.Reason)
		}
		t0.LoadBytes(base, out)
	})
	return rt.Stats(), out
}

// TestSubWordBulkEquivalenceAcrossBackends is the property test of the
// sub-word range contract: on every backend, a float32/int32 bulk store+
// load through a speculative region is observationally identical to the
// scalar 4-byte loop — same committed bytes, same read/write set peaks.
func TestSubWordBulkEquivalenceAcrossBackends(t *testing.T) {
	const n = 37 // odd length: head, word runs and a tail
	fill := func(i int) float32 { return float32(i)*0.75 - 3 }
	bulk := func(c *Thread, base mem.Addr) {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = fill(i)
		}
		c.StoreFloat32s(base, vals)
		back := make([]float32, n)
		c.LoadFloat32s(base, back)
		iv := make([]int32, n)
		for i := range iv {
			iv[i] = int32(3*i - 7)
		}
		c.StoreInt32s(base+4*n, iv)
	}
	scalar := func(c *Thread, base mem.Addr) {
		for i := 0; i < n; i++ {
			c.StoreFloat32(base+mem.Addr(4*i), fill(i))
		}
		for i := 0; i < n; i++ {
			c.LoadFloat32(base + mem.Addr(4*i))
		}
		for i := 0; i < n; i++ {
			c.StoreInt32(base+4*n+mem.Addr(4*i), int32(3*i-7))
		}
	}
	var wantBytes []byte
	var wantRead, wantWrite int
	for bi, backend := range gbuf.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			bres, bout := subWordProbe(t, backend, 8*n, bulk)
			sres, sout := subWordProbe(t, backend, 8*n, scalar)
			if string(bout) != string(sout) {
				t.Fatal("bulk and scalar sub-word accesses committed different bytes")
			}
			if bres.ReadSetPeak != sres.ReadSetPeak || bres.WriteSetPeak != sres.WriteSetPeak {
				t.Fatalf("bulk peaks (%d,%d) != scalar peaks (%d,%d)",
					bres.ReadSetPeak, bres.WriteSetPeak, sres.ReadSetPeak, sres.WriteSetPeak)
			}
			if bi == 0 {
				wantBytes, wantRead, wantWrite = bout, bres.ReadSetPeak, bres.WriteSetPeak
				return
			}
			// Cross-backend: identical bytes and set footprints.
			if string(bout) != string(wantBytes) {
				t.Fatal("backends committed different bytes for the same accesses")
			}
			if bres.ReadSetPeak != wantRead || bres.WriteSetPeak != wantWrite {
				t.Fatalf("backend peaks (%d,%d) != first backend's (%d,%d)",
					bres.ReadSetPeak, bres.WriteSetPeak, wantRead, wantWrite)
			}
		})
	}
}

// TestSubWordMisalignedRollsBack: a sub-word slice view at a non-4-aligned
// base is an unsafe operation — speculative threads roll back, the
// non-speculative thread panics.
func TestSubWordMisalignedRollsBack(t *testing.T) {
	rt := newRT(t, 1, nil)
	rt.Run(func(t0 *Thread) {
		p := t0.Alloc(256)
		base := p + 8 - mem.Addr(uint64(p)%8)
		ranks := []Rank{0}
		h := t0.Fork(ranks, 0, OutOfOrder)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.SetRegvarAddr(0, base+2)
		h.Start(func(c *Thread) uint32 {
			c.LoadFloat32s(c.GetRegvarAddr(0), make([]float32, 4))
			return 0
		})
		res := t0.Join(ranks, 0)
		if res.Status != JoinRolledBack || res.Reason != RollbackUnsafeOp {
			t.Fatalf("misaligned sub-word view: %v (%v), want rollback (unsafe-op)", res.Status, res.Reason)
		}

		defer func() {
			if recover() == nil {
				t.Fatal("non-speculative misaligned sub-word view did not panic")
			}
		}()
		t0.LoadFloat32s(base+2, make([]float32, 4))
	})
}
