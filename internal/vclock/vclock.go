// Package vclock is the timing substrate of the reproduction. The paper
// evaluates MUTLS on a 64-core AMD Opteron 6274; this repository runs on
// whatever container it is given, so wall-clock speedups saturate at the
// physical core count. To regenerate the paper's 1..64-CPU figures, every
// thread carries a virtual clock advanced by a calibrated cost model:
// compute ticks, direct and buffered memory accesses, fork/find-CPU/join
// handshakes, per-word validation and commit, and so on. Fork and join
// exchange clocks exactly like a discrete-event simulation, so the
// *structure* of parallel execution — who waits for whom, for how long — is
// modelled faithfully while correctness (buffering, validation, commit,
// rollback) still executes for real.
//
// A real mode exists as well: the same ledger is filled from time.Now
// deltas, which is what the wall-clock testing.B benchmarks measure.
package vclock

import "time"

// Cost is a duration in abstract cost units (virtual mode) or nanoseconds
// (real mode).
type Cost = int64

// Phase labels every ledger bucket. The names follow the categories of the
// paper's Figure 8 (critical path: work/join/idle/fork/find CPU) and
// Figure 9 (speculative path: wasted work/finalize/commit/validation/
// overflow/idle/fork/find CPU).
type Phase uint8

const (
	// Work is useful execution: user computation plus the memory accesses
	// it performs (buffered accesses are charged here in full, matching the
	// paper's measurement of work time as the time between overhead events).
	Work Phase = iota
	// Fork is time spent in the speculate call: proxy/stub bookkeeping and
	// live-variable save/restore.
	Fork
	// FindCPU is time scanning for an idle virtual CPU (MUTLS_get_CPU).
	FindCPU
	// Join is the synchronization handshake on the joining thread.
	Join
	// Idle is time waiting: the parent waiting for a child to stop and
	// validate, or a stopped child waiting to be joined.
	Idle
	// Validation is read-set validation time.
	Validation
	// Commit is write-set commit time.
	Commit
	// Finalize is buffer clearing time after commit or rollback.
	Finalize
	// Overflow is a child's wait time attributable to a hash-conflict
	// overflow (it had to stop early and wait to be joined).
	Overflow
	// Wasted is the work of an execution that rolled back.
	Wasted
	// NumPhases is the ledger size.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"work", "fork", "find CPU", "join", "idle",
	"validation", "commit", "finalize", "overflow", "wasted work",
}

// String returns the paper's name for the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Ledger accumulates cost per phase.
type Ledger [NumPhases]Cost

// Total returns the sum over all phases.
func (l *Ledger) Total() Cost {
	var t Cost
	for _, v := range l {
		t += v
	}
	return t
}

// Add accumulates another ledger into this one.
func (l *Ledger) Add(o *Ledger) {
	for i := range l {
		l[i] += o[i]
	}
}

// CostModel prices every runtime event in abstract units. One unit is
// roughly one arithmetic operation on the modelled machine; the defaults
// were chosen so the benchmark suite reproduces the paper's headline shapes
// (computation-intensive speedups of 20-50 at 64 CPUs, memory-intensive
// 2-7).
type CostModel struct {
	DirectAccess    Cost // non-speculative load/store
	BufferedAccess  Cost // speculative load/store through the GlobalBuffer
	ForkCost        Cost // MUTLS_speculate: proxy + stub + thread handoff
	FindCPUCost     Cost // MUTLS_get_CPU scan
	SyncCost        Cost // MUTLS_synchronize handshake
	ValidatePerWord Cost // read-set validation per buffered word
	CommitPerWord   Cost // write-set commit per buffered word
	FinalizePerWord Cost // buffer clearing per used word
	SaveLocal       Cost // per live local saved at a stop point
	RestoreLocal    Cost // per live local restored at fork or join
	CheckPointCost  Cost // one MUTLS_check_point poll
}

// DefaultCostModel prices the C benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		DirectAccess:    1,
		BufferedAccess:  4,
		ForkCost:        600,
		FindCPUCost:     60,
		SyncCost:        300,
		ValidatePerWord: 4,
		CommitPerWord:   4,
		FinalizePerWord: 1,
		SaveLocal:       12,
		RestoreLocal:    12,
		CheckPointCost:  2,
	}
}

// FortranCostModel prices the Fortran front-end variant. The paper
// attributes the Fortran programs' lower scalability to "additional memory
// buffering overhead, e.g., the shapes of arrays being allocated on the
// stack" (§V-A); the variant therefore inflates buffered accesses and the
// live-local traffic.
func FortranCostModel() CostModel {
	m := DefaultCostModel()
	m.BufferedAccess = 7
	m.SaveLocal = 24
	m.RestoreLocal = 24
	m.ForkCost = 900
	return m
}

// Mode selects how clocks advance.
type Mode uint8

const (
	// Virtual: clocks advance by cost-model charges; time.Now is never
	// consulted. Deterministic; used for all figure regeneration.
	Virtual Mode = iota
	// Real: clocks advance with wall time; charges are ignored and phases
	// are measured with spans.
	Real
)

// Clock is one thread's clock plus its phase ledger for the current
// execution. Clocks are goroutine-local; cross-thread reads happen only
// through published snapshots in the TLS handshake.
type Clock struct {
	Mode   Mode
	Model  *CostModel
	epoch  time.Time
	now    Cost
	ledger Ledger
}

// NewClock creates a clock at time zero. All clocks of one runtime share
// the epoch so Real-mode Now values are comparable across threads.
func NewClock(mode Mode, model *CostModel, epoch time.Time) *Clock {
	c := new(Clock)
	c.Init(mode, model, epoch)
	return c
}

// Init resets the clock to time zero with an empty ledger, in place: a
// virtual CPU keeps one Clock and re-initializes it for every speculation
// instead of allocating a new one.
func (c *Clock) Init(mode Mode, model *CostModel, epoch time.Time) {
	c.Mode, c.Model, c.epoch = mode, model, epoch
	c.now = 0
	c.ledger = Ledger{}
}

// Now returns the thread-local current time.
func (c *Clock) Now() Cost {
	if c.Mode == Virtual {
		return c.now
	}
	return time.Since(c.epoch).Nanoseconds()
}

// SetNow initializes virtual time (a child starting at its fork time).
func (c *Clock) SetNow(t Cost) {
	if c.Mode == Virtual {
		c.now = t
	}
}

// Charge advances virtual time by d in phase p. Real mode ignores it.
func (c *Clock) Charge(p Phase, d Cost) {
	if c.Mode == Virtual && d > 0 {
		c.now += d
		c.ledger[p] += d
	}
}

// AdvanceTo jumps virtual time forward to target, booking the gap in phase
// p (waiting). If target is in the past, nothing happens.
func (c *Clock) AdvanceTo(target Cost, p Phase) {
	if c.Mode == Virtual && target > c.now {
		c.ledger[p] += target - c.now
		c.now = target
	}
}

// Book adds a measured real-mode interval to phase p — for gaps whose two
// ends were stamped by different threads (a fork's Start stamp and the
// child's first instruction), which no single stopwatch can bracket.
// Virtual mode ignores it: virtual time only moves through Charge and
// AdvanceTo.
func (c *Clock) Book(p Phase, d Cost) {
	if c.Mode == Real && d > 0 {
		c.ledger[p] += d
	}
}

// Stopwatch is a running measurement of one phase: a value, so starting
// and stopping one allocates nothing. Under virtual timing it measures
// nothing (phases are charged, not timed) but still reports the clock, so
// callers read the time the same way in both modes.
type Stopwatch struct {
	c     *Clock
	p     Phase
	start Cost
}

// Start begins timing phase p.
func (c *Clock) Start(p Phase) Stopwatch { return Stopwatch{c: c, p: p, start: c.Now()} }

// Started returns the clock reading Start (or the last Lap) took.
func (s Stopwatch) Started() Cost { return s.start }

// Lap books the time since Start (or the last Lap) to the running phase
// and continues on phase p — one clock reading where Stop and Start would
// take two.
func (s *Stopwatch) Lap(p Phase) {
	now := s.c.Now()
	s.c.Book(s.p, now-s.start)
	s.p, s.start = p, now
}

// Stop books the time since Start (or the last Lap) to the running phase
// and returns the clock reading it took.
func (s Stopwatch) Stop() Cost {
	now := s.c.Now()
	s.c.Book(s.p, now-s.start)
	return now
}

// Span is the closure form of Start: it returns the function that stops
// the measurement. The closure is a heap object; hot paths hold the
// Stopwatch value instead.
func (c *Clock) Span(p Phase) func() {
	sw := c.Start(p)
	return func() { sw.Stop() }
}

// Ledger returns the accumulated phase ledger.
func (c *Clock) Ledger() Ledger { return c.ledger }
