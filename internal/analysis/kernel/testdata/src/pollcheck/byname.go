package a

import "repro/mutls"

// Kernels handed to their driver by name follow the same poll discipline
// as literals in the call.

func byNameFor(t *mutls.Thread, base mutls.Addr, n int) {
	body := func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
	}
	mutls.For(t, 4, mutls.ForOptions{}, body)
}

func byNameVariadic(t *mutls.Thread, base mutls.Addr, n int) {
	first := func(c *mutls.Thread, token int, in uint64) uint64 {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
		return in
	}
	second := func(c *mutls.Thread, token int, in uint64) uint64 {
		for i := 0; i < n; i++ { // polls every iteration: clean
			c.CheckPoint()
			c.StoreInt64(base, int64(i))
		}
		return in
	}
	mutls.Pipeline(t, 8, 0, mutls.PipelineOptions{}, first, second)
}

func stageList(base mutls.Addr, n int) []mutls.Stage {
	stage0 := func(c *mutls.Thread, token int, in uint64) uint64 {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
		return in
	}
	return []mutls.Stage{stage0}
}

// A ForRange kernel passed by name keeps its driver-side poll exemption.
func byNameRangePolled(t *mutls.Thread, base mutls.Addr, n int) {
	body := func(c *mutls.Thread, lo, hi int) {
		for i := lo; i < hi; i++ { // driver polls between sub-steps: clean
			c.StoreInt64(base, int64(i))
		}
	}
	mutls.ForRange(t, n, mutls.ForOptions{PollEvery: 64}, body)
}
