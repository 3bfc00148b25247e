// Package a is pointleak golden testdata: leaked, discarded, deferred,
// transferred and suppressed fork/join point allocations.
package a

import "repro/internal/core"

func leakOnBranch(rt *core.Runtime, cond bool) int {
	p := rt.AllocPoint() // want "POINT001"
	if cond {
		return 0 // leaks p
	}
	rt.FreePoint(p)
	return 1
}

func discarded(rt *core.Runtime) {
	rt.AllocPoint() // want "POINT002"
}

func deferred(rt *core.Runtime) {
	p := rt.AllocPoint()
	defer rt.FreePoint(p)
}

func deferredBlock(rt *core.Runtime, n int) {
	ps := rt.AllocPoints(n)
	defer rt.FreePoints(ps)
}

func deferredClosure(rt *core.Runtime) {
	p := rt.AllocPoint()
	defer func() {
		rt.FreePoint(p)
	}()
}

func transferred(rt *core.Runtime) int {
	p := rt.AllocPoint()
	return p // caller owns the point: clean
}

func releasedOnAllPaths(rt *core.Runtime, cond bool) int {
	p := rt.AllocPoint()
	if cond {
		rt.FreePoint(p)
		return 0
	}
	rt.FreePoint(p)
	return 1
}

func suppressed(rt *core.Runtime, sink func(int)) {
	p := rt.AllocPoint() //lint:allow POINT001 run-long point, freed by the runtime Close path
	sink(p)
}

func riskyBetween(rt *core.Runtime, body func()) {
	p := rt.AllocPoint() // want "POINT001"
	body()               // may panic: the non-deferred FreePoint never runs
	rt.FreePoint(p)
}

func panicBetween(rt *core.Runtime, cond bool) {
	p := rt.AllocPoint() // want "POINT001"
	if cond {
		panic("boom")
	}
	rt.FreePoint(p)
}

func staticBetween(rt *core.Runtime) {
	p := rt.AllocPoint()
	work() // static call: assumed panic-free
	rt.FreePoint(p)
}

// loopCarried allocates a fresh point each iteration but frees only the
// last: the flow engine follows the back edge to the reacquire.
func loopCarried(rt *core.Runtime, n int) {
	p := -1
	for i := 0; i < n; i++ {
		p = rt.AllocPoint() // want "POINT001"
		touch(p)
	}
	rt.FreePoint(p)
}

// freedEachIteration pairs inside the loop body: clean.
func freedEachIteration(rt *core.Runtime, n int) {
	for i := 0; i < n; i++ {
		p := rt.AllocPoint()
		touch(p)
		rt.FreePoint(p)
	}
}

// earlyContinue leaks the point on the skip path; the next iteration
// reallocates while the previous point is still live.
func earlyContinue(rt *core.Runtime, n int, skip func(int) bool) {
	for i := 0; i < n; i++ {
		p := rt.AllocPoint() // want "POINT001"
		if skip(i) {
			continue
		}
		rt.FreePoint(p)
	}
}

// gotoRetry re-enters the allocation via goto without freeing first.
func gotoRetry(rt *core.Runtime) {
again:
	p := rt.AllocPoint() // want "POINT001"
	if shouldRetry(p) {
		goto again
	}
	rt.FreePoint(p)
}

// gotoRetryFreed releases before looping back: clean.
func gotoRetryFreed(rt *core.Runtime) {
again:
	p := rt.AllocPoint()
	if shouldRetry(p) {
		rt.FreePoint(p)
		goto again
	}
	rt.FreePoint(p)
}

func shouldRetry(int) bool { return false }

func touch(int) {}

func work() {}
