package main

import (
	"math"

	"repro/internal/bench"
	"repro/mutls"
)

// Plain-Go kernels: the same arithmetic as internal/bench's mandelbrot,
// stencil and fft, in the same order, on Go slices with no runtime under
// them (ROADMAP rung L0). They are the base of abs_speedup and of
// bench.seq_tax_x, and their checksums must equal Workload.Seq bit for bit —
// native_test.go asserts it — so every floating-point expression below is
// written exactly as in internal/bench.

// mix folds a value into a checksum the way internal/bench does.
func mix(sum, v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	return sum + v
}

// mandelIter is the escape loop of one pixel.
func mandelIter(cr, ci float64, maxIter int) int64 {
	zr, zi := 0.0, 0.0
	it := int64(0)
	for it < int64(maxIter) && zr*zr+zi*zi <= 4.0 {
		zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
		it++
	}
	return it
}

// mandelRow renders row y of an n x n image into row.
func mandelRow(row []int64, y, n, maxIter int) {
	ci := -1.25 + 2.5*float64(y)/float64(n)
	for x := 0; x < n; x++ {
		cr := -2.0 + 3.0*float64(x)/float64(n)
		row[x] = mandelIter(cr, ci, maxIter)
	}
}

func nativeMandelbrot(s bench.Size) uint64 {
	n := s.N
	img := make([]int64, n*n)
	for y := 0; y < n; y++ {
		mandelRow(img[y*n:(y+1)*n], y, n, s.M)
	}
	sum := uint64(0)
	for _, v := range img {
		sum = mix(sum, uint64(v))
	}
	return sum
}

// The stencil's block split and stage skews (internal/bench/stencil.go).
const (
	stencilBlocks = 32
	stencilSkew1  = 2
	stencilSkew2  = 3
	stencilTokens = stencilBlocks + stencilSkew2
)

// stencilBounds returns block blk's element range (empty outside
// [0, stencilBlocks)).
func stencilBounds(n, blk int) (lo, hi int) {
	return mutls.ChunkPolicy{}.Bounds(n, stencilBlocks, blk)
}

// stencilPass is the 3-point smoothing src -> out over [lo, hi), clamped at
// the field edges.
func stencilPass(src, out []float32, lo, hi int) {
	n := len(src)
	at := func(i int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return src[i]
	}
	for i := lo; i < hi; i++ {
		out[i] = 0.25*at(i-1) + 0.5*at(i) + 0.25*at(i+1)
	}
}

func nativeStencil(s bench.Size) uint64 {
	n := s.N
	src := make([]float32, n)
	dst := make([]float32, n)
	tmp := make([]float32, n)
	for i := range src {
		src[i] = float32((i*13+7)%97) / 97.0
	}
	acc := 0.0
	for step := 0; step < s.Steps; step++ {
		// The same token order as the pipeline: the second pass trails the
		// first by two blocks and the residual by three, so each reads
		// exactly the values the pipelined kernel reads.
		for token := 0; token < stencilTokens; token++ {
			lo, hi := stencilBounds(n, token)
			stencilPass(src, tmp, lo, hi)
			lo, hi = stencilBounds(n, token-stencilSkew1)
			stencilPass(tmp, dst, lo, hi)
			lo, hi = stencilBounds(n, token-stencilSkew2)
			sum := acc
			for i := lo; i < hi; i++ {
				sum += math.Abs(float64(dst[i]) - float64(src[i]))
			}
			acc = sum
		}
		src, dst = dst, src
	}
	sum := uint64(0)
	for _, v := range src {
		sum = mix(sum, uint64(math.Float32bits(v)))
	}
	return mix(sum, math.Float64bits(acc))
}

// fftCombine merges the transformed halves of [start, start+length).
func fftCombine(re, im []float64, start, length int) {
	half := length / 2
	ar, ai := re[start:start+half], im[start:start+half]
	br, bi := re[start+half:start+length], im[start+half:start+length]
	for j := 0; j < half; j++ {
		ang := -2 * math.Pi * float64(j) / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		tr := wr*br[j] - wi*bi[j]
		ti := wr*bi[j] + wi*br[j]
		br[j], bi[j] = ar[j]-tr, ai[j]-ti
		ar[j], ai[j] = ar[j]+tr, ai[j]+ti
	}
}

func nativeFFT(s bench.Size) uint64 {
	n := s.N
	re := make([]float64, n)
	im := make([]float64, n)
	for i := 0; i < n; i++ {
		re[i] = math.Sin(0.3*float64(i)) + 0.1*float64(i%17)
		im[i] = math.Cos(0.7 * float64(i))
	}
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	for length := 2; length <= n; length <<= 1 {
		for start := 0; start < n; start += length {
			fftCombine(re, im, start, length)
		}
	}
	sum := uint64(0)
	for i := 0; i < n; i++ {
		sum = mix(sum, math.Float64bits(re[i]))
		sum = mix(sum, math.Float64bits(im[i]))
	}
	return sum
}
