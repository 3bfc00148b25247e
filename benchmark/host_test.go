package main

import (
	"testing"
	"time"
)

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestClassifyBlocks(t *testing.T) {
	const blocks = 20
	t.Run("all clean", func(t *testing.T) {
		clean := classifyBlocks(repeat(1.95, blocks+1), blocks, true)
		if count(clean) != blocks {
			t.Errorf("%d of %d clean", count(clean), blocks)
		}
		if _, ok := selectBlocks(clean, true); !ok {
			t.Error("host not trusted")
		}
	})
	t.Run("all serialized", func(t *testing.T) {
		clean := classifyBlocks(repeat(1.01, blocks+1), blocks, true)
		if count(clean) != 0 {
			t.Errorf("%d blocks clean on a serialized host", count(clean))
		}
		// The cap hit, nothing was clean: every block is used so that numbers
		// are printed at all, and the host is flagged.
		use, ok := selectBlocks(clean, false)
		if ok || count(use) != blocks {
			t.Errorf("hostOK=%v with %d blocks used; want false and all %d", ok, count(use), blocks)
		}
	})
	t.Run("flip mid-run", func(t *testing.T) {
		// Probes 0..12 clean, 13..20 serialized: blocks 0..11 have two clean
		// probes; block 12 straddles the flip and must not count.
		pars := append(repeat(1.9, 13), repeat(1.0, 8)...)
		clean := classifyBlocks(pars, blocks, true)
		for i, c := range clean {
			if c != (i < 12) {
				t.Errorf("block %d clean=%v", i, c)
			}
		}
		use, ok := selectBlocks(clean, false)
		if !ok || count(use) != 12 {
			t.Errorf("hostOK=%v, %d used; want the 12 clean blocks", ok, count(use))
		}
	})
	t.Run("too few clean at the cap", func(t *testing.T) {
		pars := append(repeat(1.9, 6), repeat(1.0, 15)...)
		clean := classifyBlocks(pars, blocks, true)
		if count(clean) != 5 {
			t.Fatalf("%d clean, want 5", count(clean))
		}
		if use, ok := selectBlocks(clean, false); ok || count(use) != blocks {
			t.Errorf("hostOK=%v, %d used; want false and all", ok, count(use))
		}
		// The same five are enough when they reached the clean-time target.
		if use, ok := selectBlocks(clean, true); !ok || count(use) != 5 {
			t.Errorf("hostOK=%v, %d used; want true and 5", ok, count(use))
		}
	})
	t.Run("one-CPU shape", func(t *testing.T) {
		// Gate off: no probes are taken and every block counts.
		clean := classifyBlocks(nil, blocks, false)
		if count(clean) != blocks {
			t.Errorf("%d of %d clean with the gate off", count(clean), blocks)
		}
	})
	t.Run("threshold", func(t *testing.T) {
		clean := classifyBlocks([]float64{1.6, 1.6, 1.59, 1.7}, 3, true)
		if !clean[0] || clean[1] || clean[2] {
			t.Errorf("clean = %v, want [true false false]", clean)
		}
	})
}

// A serialized host must not come out as a parallel number: the result is
// flagged and the exit status is its own.
func TestSerializedHostExitStatus(t *testing.T) {
	clean := classifyBlocks(repeat(1.0, 31), 30, true)
	_, ok := selectBlocks(clean, false)
	res := Result{Correct: true, HostOK: ok}
	if got := exitStatus(res); got != exitHostNotOK {
		t.Errorf("exit status %d, want %d", got, exitHostNotOK)
	}
	res.Correct = false
	if got := exitStatus(res); got != exitIncorrect {
		t.Errorf("a wrong output must outrank a noisy host: got %d", got)
	}
	if exitHostNotOK == exitIncorrect || exitHostNotOK == exitOK {
		t.Error("exit statuses are not distinct")
	}
}

func TestMeasureGateOff(t *testing.T) {
	g := &Gate{}
	calls := 0
	run := g.Measure(30*time.Millisecond, false, func(i int) time.Duration {
		if i != calls {
			t.Errorf("block index %d, want %d", i, calls)
		}
		calls++
		return 10 * time.Millisecond
	})
	if calls != 3 || !run.HostOK || count(run.Use) != 3 || run.CleanPct != 1 {
		t.Errorf("calls=%d run=%+v", calls, run)
	}
	if run := g.Measure(time.Hour, true, func(int) time.Duration { return time.Millisecond }); len(run.Use) != 1 || !run.HostOK {
		t.Errorf("once: %+v", run)
	}
}
