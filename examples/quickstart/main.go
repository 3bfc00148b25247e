// Quickstart: the smallest complete MUTLS program, written against the
// public mutls API. A runtime is created, mutls.For cuts a loop into
// chunks speculated by chained forks — the fork/join/barrier pattern of
// the paper's Figure 1, with all protocol plumbing (ranks arrays, register
// save/restore, join-and-reexecute) handled by the library — and the
// statistics summary reports how much of the work committed speculatively.
package main

import (
	"fmt"
	"log"

	"repro/mutls"
)

func main() {
	rt, err := mutls.New(mutls.Options{CPUs: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	const n = 1 << 16
	const chunks = 2
	var sum int64
	tn, err := rt.Run(func(t *mutls.Thread) {
		arr := t.Alloc(8 * n)

		// Each chunk fills its half of the array; chunk 1 runs as a
		// speculative thread while the non-speculative thread works on
		// chunk 0, and the join validates and commits it.
		mutls.For(t, chunks, mutls.ForOptions{Model: mutls.Mixed}, func(c *mutls.Thread, idx int) {
			per := n / chunks
			for i := idx * per; i < (idx+1)*per; i++ {
				if i%1024 == 0 {
					c.CheckPoint() // let squash/cancel interrupt the chunk
				}
				c.StoreInt64(arr+mutls.Addr(8*i), int64(i)*3)
			}
		})

		// Back on the non-speculative thread: every committed store is in
		// main memory now.
		sum = 0
		for i := 0; i < n; i++ {
			sum += t.LoadInt64(arr + mutls.Addr(8*i))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sum = %d (expect %d)\n", sum, int64(3*(n-1)*n/2))
	s := rt.Stats()
	fmt.Printf("virtual runtime %d units, %d committed / %d rolled back speculations\n",
		tn, s.Commits, s.Rollbacks)
}
