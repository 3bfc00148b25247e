package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/vclock"
	"repro/mutls"
)

// TestRealLedgerFillsItsInterval is TestRealModeBooksHandoffLatency's
// ledger check on a driver's hand-offs: the stencil's keyed Pipeline at CI
// size under real timing, where the pay-off guard admits every fork and
// each hand-off edge reads the clock once. Every speculative execution's
// ledger must add up to its occupied interval (their sums are equal only
// when no execution booked more than its interval), the non-speculative
// ledger to the run's runtime, and no phase may be negative. The traced
// benchmark reports these ledgers as stats.*_share.
func TestRealLedgerFillsItsInterval(t *testing.T) {
	size := bench.Stencil.CISize
	rt, err := mutls.New(mutls.Options{CPUs: 1, Timing: mutls.Real, HeapBytes: bench.Stencil.HeapBytes(size)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	executions := 0
	for run := 0; run < 20; run++ {
		runtime, err := rt.Run(func(th *mutls.Thread) { bench.Stencil.Spec(th, size, bench.SpecOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		s := rt.Stats()
		executions += s.Executions
		if got := s.SpecLedger.Total(); got != s.SpecRuntime {
			t.Fatalf("run %d: speculative ledgers sum to %d, their intervals to %d", run, got, s.SpecRuntime)
		}
		if got := s.NonSpecLedger.Total(); got != s.NonSpecRuntime || s.NonSpecRuntime != runtime {
			t.Fatalf("run %d: non-speculative ledger sums to %d, runtime %d (Run returned %d)", run, got, s.NonSpecRuntime, runtime)
		}
		for p := vclock.Phase(0); p < vclock.NumPhases; p++ {
			if s.SpecLedger[p] < 0 || s.NonSpecLedger[p] < 0 {
				t.Fatalf("run %d: %v booked %d speculative, %d non-speculative", run, p, s.SpecLedger[p], s.NonSpecLedger[p])
			}
		}
		rt.Recycle()
	}
	if executions == 0 {
		t.Skip("no fork was admitted in 20 runs: nothing speculative to check")
	}
	t.Logf("%d speculative executions checked", executions)
}
