// Package predict implements value prediction for live register variables,
// one of the paper's explicitly named future-work directions (§VI, "This
// includes value prediction, different automatic fork heuristics…").
//
// At a fork point the parent must supply every local live at the join point
// (§IV-G4); values that are not known yet must be predicted, and the join
// validates the prediction with MUTLS_validate_local. This package provides
// the two classic predictors — last value and stride — keyed by (fork point,
// slot). A history is a sequence of observed words (Observe); a float64
// history is observed as its bits.
//
// Integer predictions use exact two's-complement arithmetic (Predict);
// float64 predictions use float arithmetic for the stride extrapolation
// (PredictFloat64). Either way the join validates a prediction by bit
// equality with the actual value.
package predict

import (
	"math"
	"sync"
)

// Kind selects a prediction strategy.
type Kind uint8

const (
	// LastValue predicts the value observed at the previous execution.
	LastValue Kind = iota
	// Stride predicts last + (last - previous), the classic stride
	// predictor; it subsumes LastValue when the stride settles to zero.
	Stride
)

// String names the predictor.
func (k Kind) String() string {
	switch k {
	case LastValue:
		return "last-value"
	case Stride:
		return "stride"
	}
	return "unknown"
}

type key struct {
	point int
	slot  int
}

// History is one slot's observed words, what a Predictor keeps per (fork
// point, slot). A driver that alone observes and predicts a slot can keep
// its History itself: it takes no lock and no allocation.
type History struct {
	last, prev uint64
	samples    int
}

// Observe records the actual value seen at the join point.
func (h *History) Observe(actual uint64) {
	h.prev, h.last = h.last, actual
	h.samples++
}

// Warm reports whether the history is long enough for the strategy to
// extrapolate rather than guess: one sample for last-value, two for stride
// (one sample leaves the stride unknown, so the predicted value would just
// be the last observation — wrong for any accumulator with a nonzero
// per-chunk delta). Drivers that fork a speculation from a predicted value
// should hold the fork until the slot is warm; the cold-start fork is the
// one that is guaranteed to roll back on growing accumulators.
func (h *History) Warm(kind Kind) bool {
	return h.samples >= 2 || h.samples == 1 && kind != Stride
}

// Predict returns the predicted value and whether any history backed it
// (cold predictions return the zero value and false, matching the
// "uninitialized value" case of §IV-G4).
func (h *History) Predict(kind Kind) (uint64, bool) {
	if h.samples == 0 {
		return 0, false
	}
	if kind == Stride && h.samples >= 2 {
		return h.last + (h.last - h.prev), true
	}
	return h.last, true
}

// PredictFloat64 is Predict over a float64 history: the stride is
// extrapolated in float arithmetic (last + (last - prev)), not over the raw
// bit patterns, so a constant float delta is followed exactly.
func (h *History) PredictFloat64(kind Kind) (float64, bool) {
	if h.samples == 0 {
		return 0, false
	}
	last := math.Float64frombits(h.last)
	if kind == Stride && h.samples >= 2 {
		return last + (last - math.Float64frombits(h.prev)), true
	}
	return last, true
}

// Predictor predicts live register values per (fork point, slot).
// It is safe for concurrent use: speculative threads fork too.
type Predictor struct {
	kind Kind

	mu      sync.Mutex
	entries map[key]*History
}

// New creates a predictor of the given kind.
func New(kind Kind) *Predictor {
	return &Predictor{kind: kind, entries: make(map[key]*History)}
}

// Predict is History.Predict for the slot at the fork point.
func (p *Predictor) Predict(point, slot int) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key{point, slot}]; ok {
		return e.Predict(p.kind)
	}
	return 0, false
}

// Warm is History.Warm for the slot at the fork point.
func (p *Predictor) Warm(point, slot int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[key{point, slot}]
	return ok && e.Warm(p.kind)
}

// PredictFloat64 is History.PredictFloat64 for the slot at the fork point.
func (p *Predictor) PredictFloat64(point, slot int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key{point, slot}]; ok {
		return e.PredictFloat64(p.kind)
	}
	return 0, false
}

// Observe records the actual value seen at the join point; a float64
// value is observed as its bits.
func (p *Predictor) Observe(point, slot int, actual uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key{point, slot}
	e, ok := p.entries[k]
	if !ok {
		e = &History{}
		p.entries[k] = e
	}
	e.Observe(actual)
}
