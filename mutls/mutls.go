// Package mutls is the public programming interface of the MUTLS
// thread-level speculation runtime (Cao & Verbrugge, "Mixed Model Universal
// Software Thread-Level Speculation", ICPP 2013).
//
// The internal/core package implements the raw fork/join protocol in the
// shape of the paper's compiler-transformed code: explicit fork points
// indexed by per-frame ranks arrays, proxy/stub register save/restore, and
// join-and-reexecute loops. This package packages those driving patterns as
// a reusable library so programs never open-code the protocol:
//
//   - Runtime / Options — a façade over the core ThreadManager.
//   - For / ForRange — chunked loop-level speculation with chained in-order
//     forks (the 3x+1/mandelbrot shape of Figure 2), with a selectable
//     forking model and chunk policy.
//   - Reduce / ReduceFloat64 / ReduceFunc — speculative reduction over
//     int64, float64 and general word-encoded monoids: the continuation is
//     forked with a value-predicted accumulator that the join validates
//     (MUTLS_validate_local, §IV-G4) bit for bit, warm-gated so cold
//     predictions never fork, with float-arithmetic stride prediction for
//     float folds.
//   - Pipeline — stage-parallel speculative pipelines (the DSWP-style
//     decoupled shape): tokens flow in order, each downstream stage is its
//     own fork point speculating on a predicted upstream live-out.
//   - Tree / Task — tree-form recursion under the paper's mixed forking
//     model (fft/matmult/nqueen/tsp): speculative regions spawn subtrees and
//     hand their continuation to the parent chain (Figure 2(d)); the
//     non-speculative driver joins the tree in sequential order.
//
// Code that runs under speculation is still written against core.Thread
// (aliased here as Thread): all simulated memory traffic flows through the
// Load*/Store* accessors and pure compute is charged with Tick. Contiguous
// data should use the bulk accessors — LoadBytes/StoreBytes and the typed
// slice views LoadWords/StoreWords, LoadInt64s/StoreInt64s,
// LoadFloat64s/StoreFloat64s, plus the sub-word views
// LoadFloat32s/StoreFloat32s and LoadInt32s/StoreInt32s — which cost one
// buffered range access (a single batched clock charge, one GlobalBuffer
// crossing) instead of one probe per word. What mutls removes is the
// protocol plumbing around that code.
//
// Every driver interns its body as a fork/join point of its own
// (Runtime.PointFor; a Tree at Collect), so two drivers' bodies never
// share a profile, a pay-off verdict or a fault count.
package mutls

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/gbuf"
	"repro/internal/lbuf"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// ErrClosed is returned by Run/RunCtx on a runtime that has been closed.
var ErrClosed = core.ErrClosed

// ErrCancelled is returned by RunCtx when a run was unwound by CancelRun
// without a context error to report instead; context-driven cancellations
// return ctx.Err() (context.Canceled or context.DeadlineExceeded).
var ErrCancelled = core.ErrCancelled

// KernelPanic is the error Run/RunCtx return when the non-speculative
// thread panicked: the kernel itself faulted, so there is no sequential
// result to fall back to, but the run drains and the runtime stays
// reusable. Panics on *speculative* threads never surface as errors — they
// are contained as misspeculation (the chunk is squashed and re-executed
// non-speculatively) and counted in Summary.Faults.
type KernelPanic = core.KernelPanic

// Thread is the execution context handed to non-speculative code and to
// speculative regions; see core.Thread for the instrumented memory API.
type Thread = core.Thread

// Model selects the forking model of a fork point.
type Model = core.Model

// The forking models of the paper (§II): in-order chains for loops,
// out-of-order for method-level continuations, the tree-form mixed model in
// which every thread may speculate, and the Mitosis/POSH-style linear mixed
// baseline used in the ablation study.
const (
	InOrder     = core.InOrder
	OutOfOrder  = core.OutOfOrder
	Mixed       = core.Mixed
	MixedLinear = core.MixedLinear
)

// ParseModel converts a Figure 10 legend name ("inorder", "outoforder",
// "mixed", "mixedlinear") back to a Model.
func ParseModel(s string) (Model, error) { return core.ParseModel(s) }

// Rank identifies a virtual CPU; 0 is the non-speculative thread.
type Rank = core.Rank

// RegionFunc is a speculative continuation in the transformed form of
// Figure 2(d). Programs using For/Reduce/Tree never write one directly.
type RegionFunc = core.RegionFunc

// Addr is an address in the simulated global address space.
type Addr = mem.Addr

// Cost is a virtual-time duration (or nanoseconds under real timing).
type Cost = vclock.Cost

// TimingMode selects virtual (deterministic cost model) or real (wall
// clock) time.
type TimingMode = vclock.Mode

// Timing modes.
const (
	Virtual = vclock.Virtual
	Real    = vclock.Real
)

// CostModel prices runtime events under virtual timing.
type CostModel = vclock.CostModel

// DefaultCostModel returns the calibrated C/C++ cost model.
func DefaultCostModel() CostModel { return vclock.DefaultCostModel() }

// FortranCostModel returns the Fortran-frontend cost model variant.
func FortranCostModel() CostModel { return vclock.FortranCostModel() }

// Summary aggregates the statistics of one Run (commits, rollbacks,
// per-phase ledgers — the inputs to the paper's Figures 5-9 — plus the
// GlobalBuffer pressure and activity counters of the backend ablation).
type Summary = stats.Summary

// Buffering selects the per-CPU GlobalBuffer backend by name and sizes
// the "openaddr" maps (LogWords, OverflowCap); "bitmap" and "chain" have
// nothing to size. Zero fields select defaults; invalid sizing or an
// unknown backend fails New.
type Buffering = gbuf.Config

// BufferCounters is the aggregated GlobalBuffer activity of a run
// (Summary.GBuf): conflict parks, validations and their failures, and the
// words validated and committed.
type BufferCounters = gbuf.Counters

// Backends returns the registered GlobalBuffer backend names, sorted —
// the valid values of Buffering.Backend.
func Backends() []string { return gbuf.Backends() }

// Predictor selects a live-variable value prediction strategy for Reduce
// and Pipeline.
type Predictor = predict.Kind

// Value predictors (§VI future work): last-value and stride.
const (
	LastValue = predict.LastValue
	Stride    = predict.Stride
)

// Options configures a Runtime. The zero value of every field selects a
// sensible default, so Options{CPUs: 8} is a complete configuration.
// Nothing here injects faults: the module's chaos tests hand a plan to one
// run through its context (RunCtx), and a run without one pays a pointer
// check per seam.
type Options struct {
	// CPUs is the number of speculative virtual CPUs (ranks 1..CPUs); the
	// non-speculative thread runs besides them. Zero disables speculation
	// entirely (every fork is refused).
	CPUs int

	// Timing selects Virtual (default, deterministic) or Real time.
	Timing TimingMode

	// Cost prices runtime events under virtual timing. Zero selects
	// DefaultCostModel.
	Cost CostModel

	// StaticBytes, HeapBytes and StackBytes size the simulated address
	// space (zero selects the core defaults). StackBytes is per thread.
	StaticBytes int
	HeapBytes   int
	StackBytes  int

	// Buffering selects and sizes the per-CPU GlobalBuffer backend
	// (bitmap, openaddr or chain). The zero value selects the bitmap
	// backend with default sizing; Backend: "openaddr" runs the paper's
	// organization.
	Buffering Buffering

	// RegSlots and StackSlots size the per-CPU LocalBuffer frames.
	RegSlots   int
	StackSlots int

	// RollbackProb forces random rollbacks at validation time with the
	// given probability (the Figure 11 sensitivity experiment); Seed seeds
	// the per-CPU deterministic generators behind it.
	RollbackProb float64
	Seed         uint64

	// CollectStats is accepted and ignored: statistics are always on, in
	// fixed-size accumulators, so there is nothing left for it to enable.
	CollectStats bool

	// SpecDeadline bounds runaway speculation: a wall-clock floor on how
	// long one speculative chunk may run before its first CheckPoint poll
	// past the deadline squashes it (RollbackDeadline, counted in
	// Summary.Faults). The deadline is fixed when the chunk starts: the
	// larger of SpecDeadline and 8x the point's observed mean chunk
	// latency. Zero (the default) disables it.
	SpecDeadline time.Duration
}

// coreOptions lowers the façade options onto core.Options.
func (o Options) coreOptions() core.Options {
	co := core.Options{
		NumCPUs:      o.CPUs,
		Timing:       o.Timing,
		Cost:         o.Cost,
		RollbackProb: o.RollbackProb,
		Seed:         o.Seed,
		SpecDeadline: o.SpecDeadline,
	}
	if o.StaticBytes != 0 || o.HeapBytes != 0 || o.StackBytes != 0 {
		// Unset sizes keep the core defaults.
		co.Space = mem.DefaultSpaceConfig(o.CPUs + 1)
		if o.StaticBytes != 0 {
			co.Space.StaticBytes = o.StaticBytes
		}
		if o.HeapBytes != 0 {
			co.Space.HeapBytes = o.HeapBytes
		}
		if o.StackBytes != 0 {
			co.Space.StackBytes = o.StackBytes
		}
	}
	co.GBuf = o.Buffering
	if o.RegSlots != 0 || o.StackSlots != 0 {
		co.LBuf = lbuf.DefaultConfig()
		if o.RegSlots != 0 {
			co.LBuf.RegSlots = o.RegSlots
		}
		if o.StackSlots != 0 {
			co.LBuf.StackSlots = o.StackSlots
		}
	}
	return co
}

// Runtime is the public façade over the core ThreadManager. It embeds
// *core.Runtime, so RunCtx, Stats, ResetStats, Recycle, SetCPULimit,
// Space, NumCPUs and Close are available directly; Run below is RunCtx
// under context.Background.
type Runtime struct {
	*core.Runtime
}

// New builds a runtime. Close it when done (Close is idempotent).
func New(opts Options) (*Runtime, error) {
	rt, err := core.NewRuntime(opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Runtime{Runtime: rt}, nil
}

// Run executes fn as the non-speculative thread and returns the paper's
// TN: the critical-path runtime (virtual units or nanoseconds under Real
// timing). Speculative threads still outstanding when fn returns are
// squashed. On a closed runtime it returns ErrClosed without executing
// fn. For deadlines and cancellation, use RunCtx (promoted from
// core.Runtime): it stops forking once the context is done and unwinds
// the run at the next Thread.CancelPoint poll, which For/ForRange/Reduce/
// Pipeline insert at every chunk/group/token boundary and Tree at every
// join.
func (r *Runtime) Run(fn func(t *Thread)) (Cost, error) {
	return r.Runtime.RunCtx(context.Background(), fn)
}
