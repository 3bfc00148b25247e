// Package stats accumulates finished speculative executions into the
// metrics the paper reports: absolute speedup, critical path efficiency,
// speculative path efficiency, power efficiency, parallel execution coverage
// (§V-B) and the critical/speculative path breakdowns of Figures 8 and 9.
// Every one of them is a sum over executions, so the collector keeps sums —
// one fixed-size accumulator per virtual CPU — and no per-execution storage.
package stats

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/gbuf"
	"repro/internal/vclock"
)

// ExecRecord is one finished speculative execution: the interval it occupied
// its virtual CPU and the phase ledger accumulated during it. It is the
// argument of Collector.Add, which folds it into the CPU's accumulator and
// keeps nothing of it.
type ExecRecord struct {
	Rank      int
	Start     vclock.Cost
	End       vclock.Cost
	Ledger    vclock.Ledger
	Committed bool
	// ReadSetPeak/WriteSetPeak are the GlobalBuffer set sizes (words) at
	// the end of the execution — its buffer-pressure high-water marks.
	ReadSetPeak  int
	WriteSetPeak int
}

// Runtime returns the record's occupied interval length.
func (r *ExecRecord) Runtime() vclock.Cost { return r.End - r.Start }

// FaultRecord captures one contained fault: the panic value and a
// truncated stack, for post-mortem inspection without a process crash.
type FaultRecord struct {
	Rank  int    // 0 = non-speculative thread
	Point int    // fork/join point, -1 outside any point
	Value string // rendered panic value
	Stack string // truncated goroutine stack at recovery
}

// FaultStats counts the containment events of a run: speculative panics
// converted to rollbacks, non-speculative panics surfaced as KernelPanic
// errors, and watchdog deadline kills.
type FaultStats struct {
	SpecPanics    int64 `json:"spec_panics"`
	KernelPanics  int64 `json:"kernel_panics"`
	WatchdogKills int64 `json:"watchdog_kills"`

	// Records holds the most recent fault captures, newest last, capped at
	// MaxFaultRecords.
	Records []FaultRecord `json:"-"`
}

// MaxFaultRecords caps the retained fault captures per collector.
const MaxFaultRecords = 32

// Collector accumulates executions. Each virtual CPU's worker folds only
// into its own accumulator (no locking, no atomics: Summarize reads them
// once the run has drained); the non-speculative thread's ledger is set once
// at the end of the run. Memory is O(CPUs) for the life of the collector,
// whatever the number of executions. Fault counts are mutex-guarded — faults
// are rare by definition, so the lock never sits on a hot path.
type Collector struct {
	perCPU []cpuAcc // index 0 unused; ranks are 1-based

	nonSpecRuntime vclock.Cost
	nonSpecLedger  vclock.Ledger

	faultMu sync.Mutex
	faults  FaultStats
}

// cpuAcc is one virtual CPU's sums over its finished executions: what
// Summary reports of the speculative path.
type cpuAcc struct {
	runtime   vclock.Cost
	ledger    vclock.Ledger // normalized, see Add
	commits   int
	rollbacks int
	readPeak  int
	writePeak int
}

// CountSpecPanic records a speculative panic contained as RollbackFault.
func (c *Collector) CountSpecPanic(rec FaultRecord) {
	c.faultMu.Lock()
	c.faults.SpecPanics++
	c.addFaultRecordLocked(rec)
	c.faultMu.Unlock()
}

// CountKernelPanic records a non-speculative panic surfaced as a
// KernelPanic error.
func (c *Collector) CountKernelPanic(rec FaultRecord) {
	c.faultMu.Lock()
	c.faults.KernelPanics++
	c.addFaultRecordLocked(rec)
	c.faultMu.Unlock()
}

// CountWatchdogKill records one runaway-speculation deadline kill.
func (c *Collector) CountWatchdogKill() {
	c.faultMu.Lock()
	c.faults.WatchdogKills++
	c.faultMu.Unlock()
}

func (c *Collector) addFaultRecordLocked(rec FaultRecord) {
	if len(c.faults.Records) >= MaxFaultRecords {
		copy(c.faults.Records, c.faults.Records[1:])
		c.faults.Records = c.faults.Records[:MaxFaultRecords-1]
	}
	c.faults.Records = append(c.faults.Records, rec)
}

// Faults returns a snapshot of the fault counters.
func (c *Collector) Faults() FaultStats {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	snap := c.faults
	snap.Records = append([]FaultRecord(nil), c.faults.Records...)
	return snap
}

// NewCollector creates a collector for ranks 1..numCPUs.
func NewCollector(numCPUs int) *Collector {
	return &Collector{perCPU: make([]cpuAcc, numCPUs+1)}
}

// Add normalizes a record and folds it into its rank's accumulator. Two
// normalizations happen here, both mode-independent:
//
//   - The residual of the occupied interval not booked to any phase is
//     booked as work. In virtual mode the residual is zero (every advance is
//     ledgered); in real mode the ledger only holds the instrumented
//     overhead spans, so the residual is precisely the user work time.
//   - Rolled-back executions convert their work into wasted work, the
//     paper's Figure 9 category.
func (c *Collector) Add(rec ExecRecord) {
	if rec.Rank <= 0 || rec.Rank >= len(c.perCPU) {
		return
	}
	if resid := rec.Runtime() - rec.Ledger.Total(); resid > 0 {
		rec.Ledger[vclock.Work] += resid
	}
	a := &c.perCPU[rec.Rank]
	if rec.Committed {
		a.commits++
	} else {
		a.rollbacks++
		rec.Ledger[vclock.Wasted] += rec.Ledger[vclock.Work]
		rec.Ledger[vclock.Work] = 0
	}
	a.runtime += rec.Runtime()
	a.ledger.Add(&rec.Ledger)
	a.readPeak = max(a.readPeak, rec.ReadSetPeak)
	a.writePeak = max(a.writePeak, rec.WriteSetPeak)
}

// SetNonSpec records the non-speculative (critical path) thread's total
// runtime and ledger. The same work-residual normalization applies.
func (c *Collector) SetNonSpec(runtime vclock.Cost, ledger vclock.Ledger) {
	if resid := runtime - ledger.Total(); resid > 0 {
		ledger[vclock.Work] += resid
	}
	c.nonSpecRuntime = runtime
	c.nonSpecLedger = ledger
}

// Reset zeroes every accumulator for a fresh run.
func (c *Collector) Reset() {
	clear(c.perCPU)
	c.nonSpecRuntime = 0
	c.nonSpecLedger = vclock.Ledger{}
	c.faultMu.Lock()
	c.faults = FaultStats{}
	c.faultMu.Unlock()
}

// Summary condenses a run. All the paper's §V metrics hang off it.
type Summary struct {
	NumCPUs        int
	NonSpecRuntime vclock.Cost
	NonSpecLedger  vclock.Ledger
	SpecRuntime    vclock.Cost   // Σ over speculative executions
	SpecLedger     vclock.Ledger // Σ over speculative executions
	Executions     int
	Commits        int
	Rollbacks      int
	// PerPoint profiles the fork/join points that saw executions (filled by
	// the runtime from its per-point counters, not by the collector).
	PerPoint map[int]PointStats

	// ReadSetPeak/WriteSetPeak are the maximum per-thread GlobalBuffer set
	// sizes (words) observed across all executions: the buffer pressure
	// the ablation bench reports alongside rollbacks.
	ReadSetPeak  int
	WriteSetPeak int

	// GBuf aggregates the GlobalBuffer activity counters over every
	// virtual CPU (filled by the runtime, not the collector; cumulative
	// across Runs on the same runtime).
	GBuf gbuf.Counters

	// PointsExhausted counts the driver bodies that found every fork/join
	// point standing for another body and took one over: the program has
	// more bodies than the runtime has points, and profiles and pay-off
	// estimates keep starting over (cumulative until ResetStats).
	PointsExhausted int64

	// Hand-off counters of the join protocol's gates (filled by the
	// runtime; cumulative until ResetStats):
	// waits that entered the time-bounded spin phase, spin phases the
	// awaited flag ended, and waits that parked the goroutine. A fork/join
	// between two threads that both have a core shows up as spin hits and
	// no parks; parks on a fine-grained loop are lost wake-up latency.
	HandoffSpins    int64
	HandoffSpinHits int64
	HandoffParks    int64

	// RefusedNoProc sums PointStats.RefusedNoProc over the fork points: the
	// forks turned down because the host had no proc for a child (filled by
	// the runtime; cumulative until ResetStats; 0 under virtual timing).
	RefusedNoProc int64

	// Faults are the containment counters: speculative panics converted to
	// rollbacks, non-speculative KernelPanics, watchdog deadline kills.
	// Cumulative until ResetStats.
	Faults FaultStats
}

// PointStats profiles one fork/join point. Runtime sums each execution's
// fork-to-verdict latency.
type PointStats struct {
	Commits   int
	Rollbacks int
	Runtime   vclock.Cost

	// RefusedNoPay counts the forks the pay-off guard refused: the point's
	// region costs the joining thread less to run inline than a fork/join
	// does. Probes counts the forks it let through while refusing, to see
	// whether forking pays again: what exploring costs. The three averages
	// are the estimate of the body the point stands for as it is now, in
	// nanoseconds on the non-speculative thread's clock (they outlive
	// ResetStats, like the verdict they explain): the region run inline,
	// what a fork bought (the inline time of everything the fork runs — a
	// Pipeline group's stages together — times the share of joins that
	// committed) and what a fork/join cost; each is the mean of the last 64
	// samples without the largest. ColdJoins counts the joins whose fork
	// woke a parked worker. All zero under virtual timing.
	RefusedNoPay             int
	Probes                   int
	InlineNS, GainNS, CostNS int64
	ColdJoins                int

	// RefusedNoProc counts the forks refused because every proc of the host
	// was already running a thread with work, of this runtime or another in
	// the process: the virtual CPU was idle, no core was. Real timing on
	// more than one proc only; such a refusal is not in RefusedNoPay and
	// did not touch the estimate.
	RefusedNoProc int
}

// Summarize adds up the per-CPU accumulators.
func (c *Collector) Summarize(numCPUs int) *Summary {
	s := &Summary{
		NumCPUs:        numCPUs,
		NonSpecRuntime: c.nonSpecRuntime,
		NonSpecLedger:  c.nonSpecLedger,
		PerPoint:       map[int]PointStats{},
		Faults:         c.Faults(),
	}
	for i := range c.perCPU {
		a := &c.perCPU[i]
		s.SpecRuntime += a.runtime
		s.SpecLedger.Add(&a.ledger)
		s.Commits += a.commits
		s.Rollbacks += a.rollbacks
		s.ReadSetPeak = max(s.ReadSetPeak, a.readPeak)
		s.WriteSetPeak = max(s.WriteSetPeak, a.writePeak)
	}
	s.Executions = s.Commits + s.Rollbacks
	return s
}

// CritEfficiency is the paper's ηcrit = Tworktime_nonsp / Truntime_nonsp.
func (s *Summary) CritEfficiency() float64 {
	if s.NonSpecRuntime == 0 {
		return 0
	}
	return float64(s.NonSpecLedger[vclock.Work]) / float64(s.NonSpecRuntime)
}

// SpecEfficiency is ηsp = ΣTworktime_sp / ΣTruntime_sp.
func (s *Summary) SpecEfficiency() float64 {
	if s.SpecRuntime == 0 {
		return 0
	}
	return float64(s.SpecLedger[vclock.Work]) / float64(s.SpecRuntime)
}

// PowerEfficiency is ηpower = Ts / (Truntime_nonsp + ΣTruntime_sp), the
// paper's inverse measure of relative waste.
func (s *Summary) PowerEfficiency(ts vclock.Cost) float64 {
	total := s.NonSpecRuntime + s.SpecRuntime
	if total == 0 {
		return 0
	}
	return float64(ts) / float64(total)
}

// Coverage is C = ΣTruntime_sp / Truntime_nonsp, the parallel execution
// coverage of §V-B.
func (s *Summary) Coverage() float64 {
	if s.NonSpecRuntime == 0 {
		return 0
	}
	return float64(s.SpecRuntime) / float64(s.NonSpecRuntime)
}

// Speedup is the absolute speedup Ts / TN for a given sequential time.
func (s *Summary) Speedup(ts vclock.Cost) float64 {
	if s.NonSpecRuntime == 0 {
		return 0
	}
	return float64(ts) / float64(s.NonSpecRuntime)
}

// CritBreakdownPhases lists the critical-path categories of Figure 8.
var CritBreakdownPhases = []vclock.Phase{
	vclock.Work, vclock.Join, vclock.Idle, vclock.Fork, vclock.FindCPU,
}

// SpecBreakdownPhases lists the speculative-path categories of Figure 9.
var SpecBreakdownPhases = []vclock.Phase{
	vclock.Wasted, vclock.Finalize, vclock.Commit, vclock.Validation,
	vclock.Overflow, vclock.Idle, vclock.Fork, vclock.FindCPU, vclock.Work,
}

// Breakdown returns each listed phase's share of the given runtime as a
// fraction in [0,1]. Shares are of the runtime parameter — not of the
// ledger's own total — so the listed phases need not sum to 1 when other
// phases are excluded or the ledger does not fill the runtime.
func Breakdown(ledger vclock.Ledger, runtime vclock.Cost, phases []vclock.Phase) map[vclock.Phase]float64 {
	out := make(map[vclock.Phase]float64, len(phases))
	if runtime <= 0 {
		return out
	}
	for _, p := range phases {
		out[p] = float64(ledger[p]) / float64(runtime)
	}
	return out
}

// String renders a compact one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("cpus=%d Tn=%d specT=%d exec=%d commit=%d rollback=%d ηcrit=%.3f ηsp=%.3f C=%.2f",
		s.NumCPUs, s.NonSpecRuntime, s.SpecRuntime, s.Executions, s.Commits, s.Rollbacks,
		s.CritEfficiency(), s.SpecEfficiency(), s.Coverage())
}

// PointsSorted returns the fork/join point ids with statistics, ascending.
func (s *Summary) PointsSorted() []int {
	ids := make([]int, 0, len(s.PerPoint))
	for id := range s.PerPoint {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
