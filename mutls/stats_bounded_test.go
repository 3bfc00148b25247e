package mutls_test

import (
	"runtime"
	"testing"

	"repro/mutls"
)

// TestStatsStorageIsBounded: statistics are sums in fixed-size
// accumulators, so a For over 20 000 chunks leaves no more behind than one
// over 32 — summarizing either costs the same allocations — and the run
// itself allocates a few bytes per execution, where the record log took
// over a hundred.
func TestStatsStorageIsBounded(t *testing.T) {
	statsAllocs := func(chunks int) float64 {
		rt := newRuntime(t, 2, nil)
		want := int64(0)
		for i := 0; i < chunks; i++ {
			want += int64(i)*7 + 3
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := forFill(rt, chunks, chunks, mutls.InOrder)
		runtime.ReadMemStats(&after)
		if got != want {
			t.Fatalf("%d chunks: sum %d, want %d", chunks, got, want)
		}
		s := rt.Stats()
		if s.Executions < chunks/4 {
			t.Fatalf("%d chunks: only %d speculative executions", chunks, s.Executions)
		}
		if perExec := (after.TotalAlloc - before.TotalAlloc) / uint64(s.Executions); chunks >= 20000 && perExec >= 64 {
			t.Errorf("%d chunks: the run allocated %d bytes per execution", chunks, perExec)
		}
		return testing.AllocsPerRun(20, func() { rt.Stats() })
	}
	small, large := statsAllocs(32), statsAllocs(20000)
	if large != small {
		t.Fatalf("Stats() allocates %v objects after 20000 chunks, %v after 32", large, small)
	}
}
