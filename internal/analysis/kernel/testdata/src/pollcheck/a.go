// Package a is pollcheck golden testdata: kernels with poll-free loops
// (flagged), polled loops, PollEvery on ForRange (exempt) and on For (not),
// polling helpers, indirect kernels, tree-form regions and suppressed
// findings.
package a

import "repro/mutls"

func pollFree(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
	})
}

func polledOuter(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ {
			c.CheckPoint()
			for j := 0; j < n; j++ { // inner runs between polls: clean
				c.StoreInt64(base, int64(j))
			}
		}
	})
}

// For speculates one index per fork, so its driver never polls: PollEvery
// exempts nothing there.
func pollEveryExempt(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{PollEvery: 64}, func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
	})
}

func pollEveryVar(t *mutls.Thread, base mutls.Addr, n int) {
	opts := mutls.ForOptions{PollEvery: 32}
	mutls.For(t, 4, opts, func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
	})
}

func pollEveryRangeExempt(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.ForRange(t, n, mutls.ForOptions{PollEvery: 64}, func(c *mutls.Thread, lo, hi int) {
		for i := lo; i < hi; i++ { // driver polls between sub-steps: clean
			c.StoreInt64(base, int64(i))
		}
	})
}

func pollEveryRangeVar(t *mutls.Thread, base mutls.Addr, n int) {
	opts := mutls.ForOptions{PollEvery: 32}
	mutls.ForRange(t, n, opts, func(c *mutls.Thread, lo, hi int) {
		for i := lo; i < hi; i++ { // options variable sets PollEvery: clean
			c.StoreInt64(base, int64(i))
		}
	})
}

// step polls, so loops calling it are compliant.
func step(c *mutls.Thread, base mutls.Addr, i int) {
	c.CheckPoint()
	c.StoreInt64(base, int64(i))
}

func helperPoll(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		for i := 0; i < n; i++ { // step polls transitively: clean
			step(c, base, i)
		}
	})
}

func indirectKernel(t *mutls.Thread, base mutls.Addr, n int) {
	explore := func(c *mutls.Thread) {
		for i := 0; i < n; i++ { // want "POLL001"
			c.StoreInt64(base, int64(i))
		}
	}
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		explore(c)
	})
}

func treeExempt(base mutls.Addr, n int) *mutls.Tree {
	tr := &mutls.Tree{}
	tr.Body = func(c *mutls.Thread, tt *mutls.TreeThread, task mutls.Task) {
		for i := 0; i < n; i++ { // tree regions join whole: clean
			c.StoreInt64(base, int64(i))
		}
	}
	return tr
}

func suppressed(t *mutls.Thread, base mutls.Addr) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		for i := 0; i < 4; i++ { //lint:allow POLL001 four iterations, drains immediately
			c.StoreInt64(base, int64(i))
		}
	})
}

func pureGoLoop(t *mutls.Thread, base mutls.Addr, n int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		sum := 0
		for i := 0; i < n; i++ { // no Thread traffic inside: clean
			sum += i
		}
		c.StoreInt64(base, int64(sum))
	})
}
