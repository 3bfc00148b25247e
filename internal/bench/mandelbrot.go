package bench

import (
	"fmt"

	"repro/internal/mem"
	"repro/mutls"
)

// Mandelbrot is the paper's fractal generation benchmark: an N×N image with
// up to Size.M iterations per pixel (Table II: 512×512, 80000 iterations).
// Rows are split into 64 chunks speculated in order; the per-pixel escape
// loop is pure compute, so the benchmark is computation-intensive despite
// one buffered store per pixel.
var Mandelbrot = &Workload{
	Name:        "mandelbrot",
	Description: "mandelbrot fractal generation",
	Pattern:     "loop",
	Language:    "C/Fortran",
	Class:       "computation",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%dx%d image, maximum %d iterations", s.N, s.N, s.M)
	},
	DefaultModel: mutls.InOrder,
	CISize:       Size{N: 32, M: 300},
	PaperSize:    Size{N: 512, M: 80_000},
	HeapBytes: func(s Size) int {
		return 8*s.N*s.N + (1 << 12)
	},
	Seq:  mandelSeq,
	Spec: mandelSpec,
}

// mandelPolicy is the paper's fixed 64-way split, reduced for tiny images.
var mandelPolicy = mutls.ChunkPolicy{MaxChunks: 64}

// mandelPixel iterates z = z² + c until escape, charging the work.
func mandelPixel(c *mutls.Thread, cr, ci float64, maxIter int) int64 {
	zr, zi := 0.0, 0.0
	it := int64(0)
	for it < int64(maxIter) && zr*zr+zi*zi <= 4.0 {
		zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
		it++
	}
	c.Tick(it * 4)
	return it
}

// mandelRows renders rows y ≡ idx (mod chunks) of the image — strided so
// the in-set and out-of-set regions spread evenly over the chunks. Each
// row is computed into a scratch slice and stored with one bulk range
// access (same store count on the modelled machine, one buffer crossing
// on the real one). The per-row CheckPoint poll rolls a squashed
// speculation back without draining its remaining rows (a parked or
// join-signalled thread still finishes the chunk — For's one-index chunks
// leave the driver no sub-range to resume).
func mandelRows(c *mutls.Thread, img mem.Addr, s Size, idx, chunks int) {
	n := s.N
	row := make([]int64, n)
	for y := idx; y < n; y += chunks {
		ci := -1.25 + 2.5*float64(y)/float64(n)
		for x := 0; x < n; x++ {
			cr := -2.0 + 3.0*float64(x)/float64(n)
			row[x] = mandelPixel(c, cr, ci, s.M)
		}
		c.StoreInt64s(img+mem.Addr(8*y*n), row)
		c.CheckPoint()
	}
}

func mandelSeq(t *mutls.Thread, s Size) uint64 {
	img := t.Alloc(8 * s.N * s.N)
	defer t.Free(img)
	chunks := mandelPolicy.Chunks(s.N)
	for idx := 0; idx < chunks; idx++ {
		mandelRows(t, img, s, idx, chunks)
	}
	return mandelChecksum(t, img, s)
}

func mandelSpec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	img := t.Alloc(8 * s.N * s.N)
	defer t.Free(img)
	chunks := mandelPolicy.Chunks(s.N)
	opts := mutls.ForOptions{Model: o.Model}
	mutls.For(t, chunks, opts, func(c *mutls.Thread, idx int) {
		mandelRows(c, img, s, idx, chunks)
	})
	return mandelChecksum(t, img, s)
}

func mandelChecksum(t *mutls.Thread, img mem.Addr, s Size) uint64 {
	sum := uint64(0)
	row := make([]int64, s.N)
	for y := 0; y < s.N; y++ {
		t.LoadInt64s(img+mem.Addr(8*y*s.N), row)
		for _, v := range row {
			sum = mix(sum, uint64(v))
		}
	}
	return sum
}
