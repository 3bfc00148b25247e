// Speculative reduction through mutls.Reduce: the accumulator is live
// across chunk boundaries, so the continuation is forked out-of-order with
// a value-predicted accumulator (§IV-G4 plus the §VI future-work predictor)
// that the join validates with MUTLS_validate_local — a misprediction rolls
// the speculation back and the chunk re-executes inline. With a constant
// per-chunk increment the stride predictor locks on after two chunks and
// most speculations commit.
package main

import (
	"fmt"
	"log"

	"repro/mutls"
)

const (
	n      = 1 << 14
	chunks = 16
	per    = n / chunks
)

func main() {
	rt, err := mutls.New(mutls.Options{CPUs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var total int64
	rt.Run(func(t *mutls.Thread) {
		arr := t.Alloc(8 * n)
		for i := 0; i < n; i++ {
			t.StoreInt64(arr+mutls.Addr(8*i), 7) // constant stride: predictable
		}

		total = mutls.Reduce(t, chunks, 0,
			mutls.ReduceOptions{Predictor: mutls.Stride},
			func(c *mutls.Thread, idx int, acc int64) int64 {
				for i := idx * per; i < (idx+1)*per; i++ {
					if i%1024 == 0 {
						c.CheckPoint() // let squash/cancel interrupt the chunk
					}
					acc += c.LoadInt64(arr + mutls.Addr(8*i))
				}
				return acc
			})
	})

	s := rt.Stats()
	fmt.Printf("total = %d (expect %d)\n", total, int64(7*n))
	fmt.Printf("speculations: %d committed, %d rolled back (locals mispredictions roll back)\n",
		s.Commits, s.Rollbacks)
}
