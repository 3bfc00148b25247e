package a

import (
	"fmt"

	"repro/mutls"
)

// Kernels handed to their driver by name reach the same effect checks as
// literals in the call.

func byNameFor(t *mutls.Thread) {
	body := func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		logProgress(idx) // want "EFFECT001"
	}
	mutls.For(t, 4, mutls.ForOptions{}, body)
}

func byNameVariadic(t *mutls.Thread) {
	first := func(c *mutls.Thread, token int, in uint64) uint64 {
		fmt.Println(token) // want "EFFECT001"
		return in + 1
	}
	second := func(c *mutls.Thread, token int, in uint64) uint64 { return in }
	mutls.Pipeline(t, 8, 0, mutls.PipelineOptions{}, first, second)
}

func stageList() []mutls.Stage {
	stage0 := func(c *mutls.Thread, token int, in uint64) uint64 {
		logProgress(token) // want "EFFECT001"
		return in + 1
	}
	return []mutls.Stage{stage0}
}

// copy into a captured slice is a write through the destination
// argument, like any helper that writes through a parameter.
func copyIntoCaptured(t *mutls.Thread, shared []int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		local := make([]int64, 4)
		copy(shared, local) // want "EFFECT003: speculative kernel passes captured \"shared\" to copy"
		copy(local, shared[:4])
	})
}
