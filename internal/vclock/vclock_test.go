package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPhaseNames(t *testing.T) {
	if Work.String() != "work" || Wasted.String() != "wasted work" || FindCPU.String() != "find CPU" {
		t.Fatal("phase names drifted from the paper's figure legends")
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase name")
	}
}

func TestLedgerTotalAndAdd(t *testing.T) {
	var a, b Ledger
	a[Work] = 10
	a[Idle] = 5
	b[Work] = 1
	b[Commit] = 2
	a.Add(&b)
	if a[Work] != 11 || a[Commit] != 2 || a.Total() != 18 {
		t.Fatalf("ledger %+v total %d", a, a.Total())
	}
}

func TestVirtualChargeAdvancesTimeAndLedger(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	c.Charge(Work, 100)
	c.Charge(Fork, 50)
	if c.Now() != 150 {
		t.Fatalf("Now = %d", c.Now())
	}
	l := c.Ledger()
	if l[Work] != 100 || l[Fork] != 50 {
		t.Fatalf("ledger %+v", l)
	}
	c.Charge(Work, 0)
	c.Charge(Work, -5) // non-positive charges ignored
	if c.Now() != 150 {
		t.Fatalf("Now moved on zero charge: %d", c.Now())
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	c.Charge(Work, 100)
	c.AdvanceTo(250, Idle)
	if c.Now() != 250 || c.Ledger()[Idle] != 150 {
		t.Fatalf("Now=%d idle=%d", c.Now(), c.Ledger()[Idle])
	}
	c.AdvanceTo(200, Idle) // past target: no-op
	if c.Now() != 250 || c.Ledger()[Idle] != 150 {
		t.Fatal("AdvanceTo went backwards")
	}
}

func TestVirtualSetNow(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	c.SetNow(1000)
	if c.Now() != 1000 {
		t.Fatalf("SetNow: %d", c.Now())
	}
}

func TestVirtualSpanIsNoop(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	stop := c.Span(Join)
	stop()
	if c.Ledger()[Join] != 0 {
		t.Fatal("virtual span charged the ledger")
	}
}

func TestRealClockAdvancesWithWallTime(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Real, &m, time.Now())
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond)
	if c.Now() <= t0 {
		t.Fatal("real clock did not advance")
	}
	// Charges and AdvanceTo are ignored in real mode.
	c.Charge(Work, 1<<40)
	c.AdvanceTo(1<<50, Idle)
	if c.Ledger()[Work] != 0 || c.Ledger()[Idle] != 0 {
		t.Fatal("real mode accepted virtual charges")
	}
}

func TestRealSpanMeasures(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Real, &m, time.Now())
	stop := c.Span(Validation)
	time.Sleep(2 * time.Millisecond)
	stop()
	if c.Ledger()[Validation] < (1 * time.Millisecond).Nanoseconds() {
		t.Fatalf("span measured %d ns", c.Ledger()[Validation])
	}
}

func TestCostModelsOrdering(t *testing.T) {
	c := DefaultCostModel()
	f := FortranCostModel()
	if c.BufferedAccess <= c.DirectAccess {
		t.Fatal("buffered access must cost more than direct")
	}
	if f.BufferedAccess <= c.BufferedAccess {
		t.Fatal("the Fortran variant must have higher buffering overhead (paper §V-A)")
	}
	if f.SaveLocal <= c.SaveLocal || f.ForkCost <= c.ForkCost {
		t.Fatal("Fortran live-local traffic must cost more")
	}
	if f.DirectAccess != c.DirectAccess {
		t.Fatal("sequential (direct) execution speed should not differ between front-ends")
	}
}

// Property: in virtual mode, Now always equals the ledger total (every
// advance is booked somewhere) when starting from zero.
func TestQuickVirtualNowEqualsLedgerTotal(t *testing.T) {
	m := DefaultCostModel()
	f := func(charges []uint16, targets []uint32) bool {
		c := NewClock(Virtual, &m, time.Now())
		for i, ch := range charges {
			c.Charge(Phase(i%int(NumPhases)), Cost(ch))
			if i < len(targets) {
				c.AdvanceTo(Cost(targets[i]), Idle)
			}
		}
		l := c.Ledger()
		return c.Now() == l.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatchBooksRealTimeByPhase(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Real, &m, time.Now())
	sw := c.Start(Validation)
	time.Sleep(2 * time.Millisecond)
	lap := sw.Lap(Commit)
	time.Sleep(time.Millisecond)
	end := sw.Stop()
	l := c.Ledger()
	if l[Validation] < int64(2*time.Millisecond) || l[Commit] < int64(time.Millisecond) {
		t.Fatalf("ledger validation %d commit %d", l[Validation], l[Commit])
	}
	if l[Commit] != end-lap {
		t.Fatalf("commit lap booked %d, ran %d", l[Commit], end-lap)
	}
	if end > c.Now() {
		t.Fatal("Stop returned a reading from the future")
	}
}

func TestStopwatchIsInertUnderVirtualTiming(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	c.Charge(Work, 10)
	sw := c.Start(Validation)
	c.Charge(Validation, 5)
	lap := sw.Lap(Commit)
	if end := sw.Stop(); end != 15 || lap != 15 {
		t.Fatalf("virtual stopwatch read %d / %d, want the clock (15)", end, lap)
	}
	if l := c.Ledger(); l[Validation] != 5 || l[Commit] != 0 || l.Total() != 15 {
		t.Fatalf("virtual stopwatch booked time: %+v", l)
	}
}

func TestBookIsRealModeOnly(t *testing.T) {
	m := DefaultCostModel()
	v := NewClock(Virtual, &m, time.Now())
	v.Book(Fork, 100)
	if v.Ledger()[Fork] != 0 || v.Now() != 0 {
		t.Fatal("Book moved a virtual clock")
	}
	r := NewClock(Real, &m, time.Now())
	r.Book(Fork, 100)
	r.Book(Fork, -5)
	if r.Ledger()[Fork] != 100 {
		t.Fatalf("real Book: %d", r.Ledger()[Fork])
	}
}

func TestInitRestartsClockInPlace(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Virtual, &m, time.Now())
	c.Charge(Work, 7)
	c.Init(Virtual, &m, time.Now())
	if l := c.Ledger(); c.Now() != 0 || l.Total() != 0 {
		t.Fatal("Init kept time or ledger")
	}
}

// The stopwatch is on the fork/join hot path (about eight per round trip
// under real timing) and must not allocate.
func TestStopwatchDoesNotAllocate(t *testing.T) {
	m := DefaultCostModel()
	c := NewClock(Real, &m, time.Now())
	if a := testing.AllocsPerRun(100, func() {
		sw := c.Start(Idle)
		sw.Lap(Join)
		sw.Stop()
	}); a != 0 {
		t.Fatalf("stopwatch allocates %v objects", a)
	}
	if c.Ledger()[Join] <= 0 {
		t.Fatal("stopwatch booked nothing")
	}
}
