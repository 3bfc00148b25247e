package stats

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// recordLog is the reference the accumulators replaced: it keeps every
// execution record and folds the log when asked. PerPoint is not part of
// it — the runtime fills that from its per-point counters.
type recordLog struct {
	numCPUs int
	recs    []ExecRecord
}

func (l *recordLog) add(rec ExecRecord) {
	if rec.Rank <= 0 || rec.Rank > l.numCPUs {
		return
	}
	if resid := rec.Runtime() - rec.Ledger.Total(); resid > 0 {
		rec.Ledger[vclock.Work] += resid
	}
	if !rec.Committed {
		rec.Ledger[vclock.Wasted] += rec.Ledger[vclock.Work]
		rec.Ledger[vclock.Work] = 0
	}
	l.recs = append(l.recs, rec)
}

func (l *recordLog) summarize() *Summary {
	s := &Summary{NumCPUs: l.numCPUs, PerPoint: map[int]PointStats{}}
	for i := range l.recs {
		r := &l.recs[i]
		s.SpecRuntime += r.Runtime()
		s.SpecLedger.Add(&r.Ledger)
		s.Executions++
		if r.Committed {
			s.Commits++
		} else {
			s.Rollbacks++
		}
		if r.ReadSetPeak > s.ReadSetPeak {
			s.ReadSetPeak = r.ReadSetPeak
		}
		if r.WriteSetPeak > s.WriteSetPeak {
			s.WriteSetPeak = r.WriteSetPeak
		}
	}
	return s
}

// TestAccumulatorsMatchRecordLog: over random streams — committed and
// rolled back, ledgers that fill, underfill and overfill the occupied
// interval, ranks out of range — the fixed-size accumulators summarize to
// exactly what folding the full record log does.
func TestAccumulatorsMatchRecordLog(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numCPUs := rng.Intn(9)
		c := NewCollector(numCPUs)
		ref := &recordLog{numCPUs: numCPUs}
		for n := rng.Intn(400); n > 0; n-- {
			rec := ExecRecord{
				Rank:         rng.Intn(numCPUs+4) - 2,
				Start:        rng.Int63n(1 << 40),
				Committed:    rng.Intn(3) > 0,
				ReadSetPeak:  rng.Intn(1 << 16),
				WriteSetPeak: rng.Intn(1 << 16),
			}
			rec.End = rec.Start + rng.Int63n(1<<30)
			for p := range rec.Ledger {
				if rng.Intn(3) == 0 {
					rec.Ledger[p] = rng.Int63n(1 << 28)
				}
			}
			c.Add(rec)
			ref.add(rec)
		}
		if got, want := c.Summarize(numCPUs), ref.summarize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\naccumulators %+v\nrecord log   %+v", seed, got, want)
		}
	}
}

// TestAddDoesNotAllocate: folding an execution costs no allocation, so
// statistics storage cannot grow with the number of executions.
func TestAddDoesNotAllocate(t *testing.T) {
	c := NewCollector(2)
	rec := ExecRecord{Rank: 1, End: 100, Committed: true, ReadSetPeak: 3}
	if a := testing.AllocsPerRun(1000, func() { c.Add(rec) }); a != 0 {
		t.Fatalf("Add allocates %v objects per execution", a)
	}
}
