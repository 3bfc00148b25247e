package bench

import (
	"fmt"

	"repro/internal/mem"
	"repro/mutls"
)

// X3P1 is the paper's 3x+1 benchmark: enumerate n = 1..N and count Collatz
// steps. It "avoids memory access during the computation, and thus serves
// as an idealized benchmark" (§V). Size.N is the number of integers
// enumerated. The workload is split into 64 chunks, the paper's workload
// distribution strategy, which is why its Figure 3 curve plateaus between
// 32 and 63 CPUs and jumps at 64.
var X3P1 = &Workload{
	Name:        "3x+1",
	Description: "3x+1 problem in number theory",
	Pattern:     "loop",
	Language:    "C/Fortran",
	Class:       "computation",
	AmountOfData: func(s Size) string {
		return fmt.Sprintf("%d integers (enumerate)", s.N)
	},
	DefaultModel: mutls.InOrder,
	CISize:       Size{N: 20_000},
	PaperSize:    Size{N: 40_000_000},
	HeapBytes:    func(Size) int { return 1 << 12 },
	Seq:          x3p1Seq,
	Spec:         x3p1Spec,
}

// x3p1Chunks is the paper's fixed 64-way split.
const x3p1Chunks = 64

// collatzWork counts the 3x+1 steps of every n ≡ idx (mod x3p1Chunks) in
// [1, N] — the strided workload distribution that balances the chunks —
// returning the step total; the compute is both executed for real and
// charged to the virtual clock.
func collatzWork(c *mutls.Thread, s Size, idx int) int64 {
	total := int64(0)
	polls := 0
	for n := int64(idx + 1); n <= int64(s.N); n += x3p1Chunks {
		v := n
		steps := int64(0)
		for v > 1 {
			if v&1 == 0 {
				v >>= 1
			} else {
				v = 3*v + 1
			}
			steps++
		}
		c.Tick(steps)
		total += steps
		// Sparse polling: a squashed chunk dies within 16 enumerations
		// instead of draining the remaining thousands.
		if polls++; polls&0xF == 0 {
			c.CheckPoint()
		}
	}
	return total
}

func x3p1Seq(t *mutls.Thread, s Size) uint64 {
	out := t.Alloc(8 * x3p1Chunks)
	defer t.Free(out)
	for idx := 0; idx < x3p1Chunks; idx++ {
		t.StoreInt64(out+mem.Addr(8*idx), collatzWork(t, s, idx))
	}
	return x3p1Sum(t, out)
}

func x3p1Spec(t *mutls.Thread, s Size, o SpecOptions) uint64 {
	out := t.Alloc(8 * x3p1Chunks)
	defer t.Free(out)
	opts := mutls.ForOptions{Model: o.Model}
	mutls.For(t, x3p1Chunks, opts, func(c *mutls.Thread, idx int) {
		c.StoreInt64(out+mem.Addr(8*idx), collatzWork(c, s, idx))
	})
	return x3p1Sum(t, out)
}

func x3p1Sum(t *mutls.Thread, out mem.Addr) uint64 {
	sum := uint64(0)
	for idx := 0; idx < x3p1Chunks; idx++ {
		sum = mix(sum, uint64(t.LoadInt64(out+mem.Addr(8*idx))))
	}
	return sum
}
