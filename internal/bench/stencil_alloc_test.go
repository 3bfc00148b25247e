package bench

import (
	"testing"

	"repro/internal/raceflag"
	"repro/mutls"
)

// TestStencilAllocationsDoNotGrowWithTokens: the stencil's stages work in
// per-rank scratch made once a sweep, so a run's allocations grow by what a
// sweep sets up, not by what its tokens do — doubling the sweeps of a
// CI-size run adds fewer allocations than it adds tokens, Seq and Spec
// alike.
func TestStencilAllocationsDoNotGrowWithTokens(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("allocation count needs a quiet, uninstrumented run")
	}
	for _, spec := range []bool{false, true} {
		allocs := func(steps int) float64 {
			size := Size{N: Stencil.CISize.N, Steps: steps}
			cfg := ciConfig(Stencil, 2)
			cfg.Size = size
			rt, err := mutls.New(cfg.options(Stencil))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			run := func(th *mutls.Thread) {
				if spec {
					Stencil.Spec(th, size, SpecOptions{Model: Stencil.DefaultModel})
				} else {
					Stencil.Seq(th, size)
				}
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := rt.Run(run); err != nil {
					t.Fatal(err)
				}
				rt.Recycle()
			})
		}
		two, four := allocs(2), allocs(4)
		t.Logf("spec %v: %.0f allocations at 2 sweeps, %.0f at 4", spec, two, four)
		if tokens := 2.0 * stencilTokens; four-two >= tokens {
			t.Fatalf("spec %v: two more sweeps (%.0f tokens) made %.0f more allocations (%.0f at 2 sweeps, %.0f at 4)",
				spec, tokens, four-two, two, four)
		}
	}
}
