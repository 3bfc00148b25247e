// Package a is speccheck golden testdata for the SPEC codes: captured writes,
// raw captured slice/map traffic, bulk-view escapes, legitimate
// captured-scalar reads and suppressed findings.
package a

import "repro/mutls"

func capturedWrites(t *mutls.Thread, base mutls.Addr) {
	total := int64(0)
	count := 0
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		total += c.LoadInt64(base) // want "SPEC001"
		count++                    // want "SPEC001"
	})
	_ = total
	_ = count
}

func rawCollections(t *mutls.Thread, shared []int64, m map[int]int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		shared[idx] = 1 // want "SPEC002"
		v := m[idx]     // want "SPEC002"
		_ = v
	})
}

func rangeOverShared(t *mutls.Thread, shared []int64, base mutls.Addr) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		for _, v := range shared { // want "SPEC002"
			c.StoreInt64(base, v)
		}
	})
}

func viewEscape(t *mutls.Thread, base mutls.Addr) {
	var escaped []int64
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		buf := make([]int64, 8)
		c.LoadInt64s(base, buf)
		escaped = buf // want "SPEC001" "SPEC003"
	})
	_ = escaped
}

func cleanKernel(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		local := make([]int64, n)
		c.LoadInt64s(base, local)
		sum := int64(0)
		for _, v := range local { // local slice: clean
			sum += v
		}
		c.StoreInt64(base, sum) // captured scalar reads (base): clean
	})
}

func suppressed(t *mutls.Thread, base mutls.Addr, spill []int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		spill[idx] = c.LoadInt64(base) //lint:allow SPEC002 per-index disjoint scratch, read only after the join
	})
}
