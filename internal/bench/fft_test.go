package bench

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/mem"
	"repro/mutls"
)

// TestFFTPrologueMatchesPlainGo: fftInit's bulk stores and fftBitReverse's
// bulk permutation leave both arrays' arena images equal, bit for bit, to
// the input formula permuted by bit reversal in plain Go — on runtimes with
// no and with two speculative CPUs. The images are read back with scalar
// loads, a path the prologue does not use.
func TestFFTPrologueMatchesPlainGo(t *testing.T) {
	for _, cpus := range []int{0, 2} {
		for _, n := range []int{16, 1024, 8192} {
			cfg := ciConfig(FFT, cpus)
			cfg.Size = Size{N: n}
			rt, err := mutls.New(cfg.options(FFT))
			if err != nil {
				t.Fatal(err)
			}
			gotRe, gotIm := make([]float64, n), make([]float64, n)
			if _, err := rt.Run(func(th *mutls.Thread) {
				ctx := fftInit(th, cfg.Size)
				defer ctx.free(th)
				fftBitReverse(th, ctx)
				for i := 0; i < n; i++ {
					gotRe[i] = th.LoadFloat64(ctx.re + mem.Addr(8*i))
					gotIm[i] = th.LoadFloat64(ctx.im + mem.Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			rt.Close()
			shift := bits.UintSize - log2(n)
			for i := 0; i < n; i++ {
				j := float64(bits.Reverse(uint(i)) >> shift)
				wantRe, wantIm := math.Sin(0.3*j)+0.1*float64(int(j)%17), math.Cos(0.7*j)
				if math.Float64bits(gotRe[i]) != math.Float64bits(wantRe) || math.Float64bits(gotIm[i]) != math.Float64bits(wantIm) {
					t.Fatalf("%d CPUs, n=%d: element %d is (%v, %v), want input %v's (%v, %v)",
						cpus, n, i, gotRe[i], gotIm[i], j, wantRe, wantIm)
				}
			}
		}
	}
}
