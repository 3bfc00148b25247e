// Package a is speccheck golden testdata for the EFFECT codes: impure
// calls reached from speculative kernels through helper functions —
// writes, I/O, blocking and non-idempotent calls that only the callee's
// effect summary shows — plus direct channel/sync traffic, suppressed
// variants, and clean kernels.
//
// Every violation in this file hides behind a call boundary or a
// statement form that is not a memory access; the kernel's own writes
// and raw reads (the SPEC codes) are the specaccess corpus.
package a

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/mutls"
)

var hits int64

var mu sync.Mutex

// --- EFFECT003: captured shared memory mutated via a called helper ---

// scale is the seeded interprocedural violation: it writes through its
// slice parameter, so calling it on a captured slice mutates shared
// memory behind the speculation buffer's back.
func scale(dst []int64, k int64) {
	for i := range dst {
		dst[i] *= k
	}
}

func interprocWrite(t *mutls.Thread, data []int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		scale(data, 2) // want "EFFECT003"
	})
}

// outer adds a second call layer: kernel → outer → scale.
func outer(xs []int64) { scale(xs, 3) }

func twoDeep(t *mutls.Thread, data []int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		outer(data) // want "EFFECT003"
	})
}

// bump writes package-level shared state.
func bump() { hits++ }

func globalWrite(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		bump() // want "EFFECT003"
	})
}

// counter.Add writes through its receiver.
type counter struct{ n int64 }

func (ct *counter) Add(v int64) { ct.n += v }

func recvWrite(t *mutls.Thread, ct *counter) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		ct.Add(1) // want "EFFECT003"
	})
}

// --- EFFECT001: irreversible I/O reached from a kernel ---

func logProgress(i int) { fmt.Printf("done %d\n", i) }

func ioHelper(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		logProgress(idx) // want "EFFECT001"
	})
}

func directIO(t *mutls.Thread) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		os.WriteFile("/tmp/spec.out", nil, 0o644) // want "EFFECT001"
	})
}

// --- EFFECT002: channel/mutex/WaitGroup traffic inside a kernel ---

func notify(ch chan<- int, v int) { ch <- v }

func chanHelper(t *mutls.Thread, ch chan int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		notify(ch, idx) // want "EFFECT002"
	})
}

func directSend(t *mutls.Thread, ch chan int) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		ch <- idx // want "EFFECT002"
	})
}

func lockHelper(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		mu.Lock() // want "EFFECT002"
		hotWork(idx)
		mu.Unlock() // want "EFFECT002"
	})
}

func waitHelper(t *mutls.Thread, wg *sync.WaitGroup) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		wg.Done() // want "EFFECT002"
	})
}

func spawns(t *mutls.Thread) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		go hotWork(idx) // want "EFFECT002"
	})
}

// --- EFFECT004: non-idempotent calls feeding speculative work ---

func seed() int64 { return time.Now().UnixNano() }

func timeHelper(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		_ = seed() // want "EFFECT004"
	})
}

func directRand(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		_ = rand.Intn(10) // want "EFFECT004"
	})
}

// --- suppressed variants: //lint:allow with a reason, no want ---

func suppressedIO(t *mutls.Thread) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		logProgress(idx) //lint:allow EFFECT001 debug-only tracing, stripped from production builds
	})
}

func suppressedSync(t *mutls.Thread, ch chan int) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		ch <- idx //lint:allow EFFECT002 buffered per-chunk and drained by the committer after the join
	})
}

func suppressedHelper(t *mutls.Thread, data []int64) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		scale(data, 2) //lint:allow EFFECT003 provably sequential-phase: this driver call runs with one chunk
	})
}

func suppressedTime(t *mutls.Thread) {
	mutls.For(t, 2, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		_ = seed() //lint:allow EFFECT004 wall-clock stamp is diagnostic-only, never committed
	})
}

// --- clean kernels: no diagnostics expected ---

func square(x int64) int64 { return x * x }

func hotWork(int) {}

// clean does pure arithmetic and mutates only kernel-local memory; the
// helper write lands in a slice the kernel itself allocated.
func clean(t *mutls.Thread) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		local := make([]int64, 8)
		scale(local, square(int64(idx)))
		hotWork(idx)
	})
}

// cleanScalar reads captured scalars (the kernel's live-ins): allowed.
func cleanScalar(t *mutls.Thread, base int64) {
	mutls.For(t, 4, mutls.ForOptions{}, func(c *mutls.Thread, idx int) {
		c.CheckPoint()
		_ = square(base + int64(idx))
	})
}
