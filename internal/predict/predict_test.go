package predict

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestColdPrediction(t *testing.T) {
	p := New(LastValue)
	v, ok := p.Predict(0, 0)
	if ok || v != 0 {
		t.Fatalf("cold prediction = %d, %v", v, ok)
	}
	_, _, cold := p.Stats()
	if cold != 1 {
		t.Fatalf("cold count %d", cold)
	}
}

func TestLastValuePredictsConstant(t *testing.T) {
	p := New(LastValue)
	for i := 0; i < 10; i++ {
		p.Observe(1, 2, 42)
	}
	if v, ok := p.Predict(1, 2); !ok || v != 42 {
		t.Fatalf("prediction %d, %v", v, ok)
	}
	if acc := p.Accuracy(); acc != 1.0 {
		t.Fatalf("constant accuracy %v", acc)
	}
}

func TestLastValueMissesOnChange(t *testing.T) {
	p := New(LastValue)
	p.Observe(0, 0, 1)
	p.Observe(0, 0, 2) // predicted 1, saw 2: miss
	p.Observe(0, 0, 2) // predicted 2, saw 2: hit
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestStridePredictsArithmeticSequence(t *testing.T) {
	p := New(Stride)
	// Loop induction variable: 10, 14, 18, ... The stride predictor locks
	// on after two samples; last-value would miss every time.
	for i := 0; i < 12; i++ {
		p.Observe(3, 1, uint64(10+4*i))
	}
	v, ok := p.Predict(3, 1)
	if !ok || v != uint64(10+4*12) {
		t.Fatalf("stride prediction %d, %v", v, ok)
	}
	hits, misses, _ := p.Stats()
	// First observation unscored, second scored with last-value fallback
	// (miss), from the third on the stride hits.
	if misses != 1 || hits != 10 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLastValueVsStrideOnInduction(t *testing.T) {
	lv, st := New(LastValue), New(Stride)
	for i := 0; i < 50; i++ {
		lv.Observe(0, 0, uint64(i))
		st.Observe(0, 0, uint64(i))
	}
	if lv.Accuracy() >= st.Accuracy() {
		t.Fatalf("stride (%v) must beat last-value (%v) on induction variables",
			st.Accuracy(), lv.Accuracy())
	}
	if st.Accuracy() < 0.9 {
		t.Fatalf("stride accuracy %v too low on a perfect sequence", st.Accuracy())
	}
}

func TestSlotsAndPointsIndependent(t *testing.T) {
	p := New(LastValue)
	p.Observe(0, 0, 5)
	p.Observe(0, 1, 7)
	p.Observe(2, 0, 9)
	cases := []struct {
		point, slot int
		want        uint64
	}{{0, 0, 5}, {0, 1, 7}, {2, 0, 9}}
	for _, c := range cases {
		if v, ok := p.Predict(c.point, c.slot); !ok || v != c.want {
			t.Fatalf("Predict(%d,%d) = %d, %v", c.point, c.slot, v, ok)
		}
	}
}

func TestReset(t *testing.T) {
	p := New(Stride)
	p.Observe(0, 0, 1)
	p.Observe(0, 0, 2)
	p.Reset()
	if _, ok := p.Predict(0, 0); ok {
		t.Fatal("history survived reset")
	}
	if h, m, c := p.Stats(); h != 0 || m != 0 || c != 1 {
		t.Fatalf("counters after reset: %d/%d/%d", h, m, c)
	}
}

func TestKindString(t *testing.T) {
	if LastValue.String() != "last-value" || Stride.String() != "stride" || Kind(9).String() != "unknown" {
		t.Fatal("kind names")
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New(Stride)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Observe(w, i%4, uint64(i))
				p.Predict(w, i%4)
			}
		}(w)
	}
	wg.Wait()
	if acc := p.Accuracy(); acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

// Property: accuracy is always within [0,1] and hits+misses grows by at
// most one per Observe.
func TestQuickAccuracyBounds(t *testing.T) {
	f := func(values []uint64) bool {
		p := New(Stride)
		for i, v := range values {
			p.Observe(0, 0, v)
			h, m, _ := p.Stats()
			if h+m > uint64(i) { // first observation is never scored
				return false
			}
		}
		acc := p.Accuracy()
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Warm gate and float prediction ---

func TestWarmGate(t *testing.T) {
	lv := New(LastValue)
	if lv.Warm(0, 0) {
		t.Fatal("last-value warm with no history")
	}
	lv.Observe(0, 0, 7)
	if !lv.Warm(0, 0) {
		t.Fatal("last-value not warm after one sample")
	}

	st := New(Stride)
	st.Observe(0, 0, 7)
	if st.Warm(0, 0) {
		t.Fatal("stride warm after one sample (stride unknown)")
	}
	st.Observe(0, 0, 14)
	if !st.Warm(0, 0) {
		t.Fatal("stride not warm after two samples")
	}
	if st.Warm(0, 1) || st.Warm(1, 0) {
		t.Fatal("warmth leaked across slots/points")
	}
}

func TestPredictFloat64Stride(t *testing.T) {
	p := New(Stride)
	if _, ok := p.PredictFloat64(0, 0); ok {
		t.Fatal("cold float prediction claimed history")
	}
	p.ObserveFloat64(0, 0, 1.5)
	p.ObserveFloat64(0, 0, 2.75)
	got, ok := p.PredictFloat64(0, 0)
	if !ok || got != 4.0 {
		t.Fatalf("float stride = %v, %v; want 4.0 (1.5, 2.75, +1.25)", got, ok)
	}
	// A hit is bit equality: the exact 4.0 scores, 5.25 off by one ulp
	// does not (nor did 2.75 against the cold last-value 1.5).
	p.ObserveFloat64(0, 0, 4.0)
	p.ObserveFloat64(0, 0, math.Nextafter(5.25, 6))
	if h, m, _ := p.Stats(); h != 1 || m != 2 {
		t.Fatalf("float scoring: %d hits, %d misses; want 1 and 2", h, m)
	}
	// The float stride is float arithmetic, not bit arithmetic: a bitwise
	// stride over these patterns would not land on 4.0.
	ip := New(Stride)
	ip.Observe(0, 0, math.Float64bits(1.5))
	ip.Observe(0, 0, math.Float64bits(2.75))
	raw, _ := ip.Predict(0, 0)
	if math.Float64frombits(raw) == 4.0 {
		t.Fatal("test vector too weak: bit stride coincides with float stride")
	}
}
