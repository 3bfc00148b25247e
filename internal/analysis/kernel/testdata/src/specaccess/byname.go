package a

import "repro/mutls"

// Kernels handed to their driver by name: a closure bound to a variable
// first is the same speculative region as a literal in the call.

func byNameFor(t *mutls.Thread, base mutls.Addr) {
	total := int64(0)
	body := func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		total += c.LoadInt64(base) // want "SPEC001"
	}
	mutls.For(t, 4, mutls.ForOptions{}, body)
	_ = total
}

func byNameVariadic(t *mutls.Thread, base mutls.Addr) {
	seen := 0
	first := func(c *mutls.Thread, token int, in uint64) uint64 {
		seen++ // want "SPEC001"
		return in + 1
	}
	second := func(c *mutls.Thread, token int, in uint64) uint64 {
		c.StoreInt64(base, int64(in))
		return in
	}
	mutls.Pipeline(t, 8, 0, mutls.PipelineOptions{}, first, second)
	_ = seen
}

// stageList is the stencilStages shape: the stage list is built apart
// from the Pipeline call that runs it.
func stageList(base mutls.Addr, last *uint64) []mutls.Stage {
	stage0 := func(c *mutls.Thread, token int, in uint64) uint64 {
		*last = in // want "SPEC001"
		return in + 1
	}
	return []mutls.Stage{stage0, func(c *mutls.Thread, token int, in uint64) uint64 {
		c.StoreInt64(base, int64(in))
		return in
	}}
}

// Closures declared inside a kernel run as part of it.

// nestedHelperOnce: the helper's write to a variable captured from
// outside the kernel is one finding, not one per way of reaching it.
func nestedHelperOnce(t *mutls.Thread, base mutls.Addr) {
	total := int64(0)
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		helper := func(v int64) {
			total += v // want "SPEC001"
		}
		helper(c.LoadInt64(base))
	})
	_ = total
}

// nestedHelperLocals: acc and scratch belong to the kernel, so the helper
// writing them stays inside the speculation.
func nestedHelperLocals(t *mutls.Thread, base mutls.Addr) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		acc := int64(0)
		scratch := make([]int64, 1)
		helper := func(v int64) {
			acc += v
			scratch[0] = v
		}
		helper(c.LoadInt64(base))
		c.StoreInt64(base, acc+scratch[0])
	})
}
