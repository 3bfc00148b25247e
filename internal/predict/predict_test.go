package predict

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// observeScored asks for each value's prediction before observing it and
// counts the warm predictions that matched it (hits) and that did not
// (misses); a cold prediction is not scored.
func observeScored(p *Predictor, point, slot int, values ...uint64) (hits, misses int) {
	for _, v := range values {
		if pred, ok := p.Predict(point, slot); ok {
			if pred == v {
				hits++
			} else {
				misses++
			}
		}
		p.Observe(point, slot, v)
	}
	return hits, misses
}

func TestColdPrediction(t *testing.T) {
	p := New(LastValue)
	v, ok := p.Predict(0, 0)
	if ok || v != 0 {
		t.Fatalf("cold prediction = %d, %v", v, ok)
	}
	p.Observe(0, 1, 5)
	if v, ok := p.Predict(0, 0); ok || v != 0 {
		t.Fatalf("prediction %d, %v from another slot's history", v, ok)
	}
}

func TestLastValuePredictsConstant(t *testing.T) {
	p := New(LastValue)
	values := make([]uint64, 10)
	for i := range values {
		values[i] = 42
	}
	if hits, misses := observeScored(p, 1, 2, values...); hits != 9 || misses != 0 {
		t.Fatalf("constant: hits=%d misses=%d, want 9 and 0", hits, misses)
	}
	if v, ok := p.Predict(1, 2); !ok || v != 42 {
		t.Fatalf("prediction %d, %v", v, ok)
	}
}

func TestLastValueMissesOnChange(t *testing.T) {
	p := New(LastValue)
	// 1 is cold; 2 was predicted as 1: miss; 2 again predicted as 2: hit.
	if hits, misses := observeScored(p, 0, 0, 1, 2, 2); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestStridePredictsArithmeticSequence(t *testing.T) {
	p := New(Stride)
	// Loop induction variable: 10, 14, 18, ... The stride predictor locks
	// on after two samples; last-value would miss every time.
	values := make([]uint64, 12)
	for i := range values {
		values[i] = uint64(10 + 4*i)
	}
	hits, misses := observeScored(p, 3, 1, values...)
	v, ok := p.Predict(3, 1)
	if !ok || v != uint64(10+4*12) {
		t.Fatalf("stride prediction %d, %v", v, ok)
	}
	// First observation cold, second predicted with the last-value
	// fallback (miss), from the third on the stride hits.
	if misses != 1 || hits != 10 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLastValueVsStrideOnInduction(t *testing.T) {
	values := make([]uint64, 50)
	for i := range values {
		values[i] = uint64(i)
	}
	lvHits, _ := observeScored(New(LastValue), 0, 0, values...)
	stHits, stMisses := observeScored(New(Stride), 0, 0, values...)
	if lvHits >= stHits {
		t.Fatalf("stride (%d hits) must beat last-value (%d) on induction variables", stHits, lvHits)
	}
	if stMisses > 1 {
		t.Fatalf("stride missed %d times on a perfect sequence", stMisses)
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
	// Each goroutine owns its point, so every slot saw 192+s then 196+s.
	for w := 0; w < 8; w++ {
		for s := 0; s < 4; s++ {
			if v, ok := p.Predict(w, s); !ok || v != uint64(200+s) {
				t.Fatalf("Predict(%d,%d) = %d, %v; want %d", w, s, v, ok, 200+s)
			}
		}
	}
}

// Property: on any history the stride predictor predicts last + (last -
// prev) in two's-complement arithmetic (the last value after one sample),
// so every observation but the first is scored and a sequence of constant
// stride misses at most once.
func TestQuickAccuracyBounds(t *testing.T) {
	f := func(values []uint64, start, stride uint64) bool {
		p := New(Stride)
		for i, v := range values {
			pred, ok := p.Predict(0, 0)
			switch {
			case i == 0 && ok,
				i == 1 && (!ok || pred != values[0]),
				i >= 2 && (!ok || pred != 2*values[i-1]-values[i-2]):
				return false
			}
			p.Observe(0, 0, v)
		}
		seq := make([]uint64, 1+len(values))
		for i := range seq {
			seq[i] = start + uint64(i)*stride
		}
		hits, misses := observeScored(New(Stride), 0, 0, seq...)
		return hits+misses == len(seq)-1 && misses <= 1
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
	p.Observe(0, 0, math.Float64bits(1.5))
	p.Observe(0, 0, math.Float64bits(2.75))
	got, ok := p.PredictFloat64(0, 0)
	if !ok || got != 4.0 {
		t.Fatalf("float stride = %v, %v; want 4.0 (1.5, 2.75, +1.25)", got, ok)
	}
	// The join validates by bit equality, so the stride must stay exact.
	p.Observe(0, 0, math.Float64bits(4.0))
	if got, _ := p.PredictFloat64(0, 0); got != 5.25 {
		t.Fatalf("float stride after 4.0 = %v, want exactly 5.25", got)
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
