// Stage-parallel speculative pipelines through mutls.Pipeline: tokens flow
// through an ordered list of stages, the non-speculative thread runs each
// token's first stage, and the downstream stages run speculatively from
// value-predicted upstream live-outs (validated at the join with
// MUTLS_validate_local). Data moves through simulated memory with a
// one-token skew — each stage consumes what its upstream produced a token
// earlier, the DSWP-style software-pipelining discipline that keeps the
// producing writes committed before the consuming stage speculates.
//
// The pipeline here is a toy ETL: stage 0 decodes a record, stage 1
// enriches it, stage 2 folds it into a running total.
package main

import (
	"fmt"
	"log"

	"repro/mutls"
)

const records = 256

func main() {
	rt, err := mutls.New(mutls.Options{CPUs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var total int64
	rt.Run(func(t *mutls.Thread) {
		raw := t.Alloc(8 * records)
		decoded := t.Alloc(8 * records)
		enriched := t.Alloc(8 * records)
		cell := t.Alloc(8)
		for i := 0; i < records; i++ {
			t.StoreInt64(raw+mutls.Addr(8*i), int64(i)*5+2)
		}
		t.StoreInt64(cell, 0)

		decode := func(c *mutls.Thread, token int, in uint64) uint64 {
			if token < records {
				c.Tick(300)
				v := c.LoadInt64(raw + mutls.Addr(8*token))
				c.StoreInt64(decoded+mutls.Addr(8*token), v^0x55)
			}
			return in + 1 // a token cursor: trivially stride-predictable
		}
		enrich := func(c *mutls.Thread, token int, in uint64) uint64 {
			if u := token - 1; u >= 0 && u < records {
				c.Tick(300)
				v := c.LoadInt64(decoded + mutls.Addr(8*u))
				c.StoreInt64(enriched+mutls.Addr(8*u), v*3+1)
			}
			return in + 1
		}
		fold := func(c *mutls.Thread, token int, in uint64) uint64 {
			if u := token - 2; u >= 0 && u < records {
				c.Tick(300)
				s := c.LoadInt64(cell)
				c.StoreInt64(cell, s+c.LoadInt64(enriched+mutls.Addr(8*u)))
			}
			return in + 1
		}

		// records+2 tokens drain the two skewed stages.
		mutls.Pipeline(t, records+2, 0,
			mutls.PipelineOptions{Predictor: mutls.Stride},
			decode, enrich, fold)
		total = t.LoadInt64(cell)
	})

	want := int64(0)
	for i := 0; i < records; i++ {
		want += (int64(i)*5+2^0x55)*3 + 1
	}
	s := rt.Stats()
	fmt.Printf("total = %d (expect %d)\n", total, want)
	fmt.Printf("stage speculations: %d committed, %d rolled back\n", s.Commits, s.Rollbacks)
}
