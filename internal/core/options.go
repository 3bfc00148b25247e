package core

import (
	"fmt"
	"time"

	"repro/internal/gbuf"
	"repro/internal/lbuf"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// Options configures a Runtime.
type Options struct {
	// NumCPUs is the number of speculative virtual CPUs (ranks 1..NumCPUs).
	// The paper's evaluation machine has 64; virtual timing lets any count
	// run on any host. Zero disables speculation entirely (every fork is
	// refused), which is the paper's 1-total-CPU data point: the paper's
	// x-axis counts the non-speculative thread's CPU as well.
	NumCPUs int

	// Timing selects virtual (deterministic cost model) or real (wall
	// clock) time.
	Timing vclock.Mode

	// Cost prices runtime events under virtual timing. Zero value selects
	// vclock.DefaultCostModel.
	Cost vclock.CostModel

	// Space configures the simulated address space. Zero value selects
	// mem.DefaultSpaceConfig.
	Space mem.SpaceConfig

	// GBuf selects and sizes the per-CPU GlobalBuffer backend. Zero
	// fields select the gbuf defaults (bitmap backend, default sizing);
	// an unknown backend name or invalid sizing fails NewRuntime.
	GBuf gbuf.Config

	// LBuf configures the per-CPU LocalBuffers. Zero value selects
	// lbuf.DefaultConfig.
	LBuf lbuf.Config

	// RollbackProb forces random rollbacks at validation time with the
	// given probability — the paper's Figure 11 rollback sensitivity
	// experiment.
	RollbackProb float64

	// Seed seeds the per-CPU deterministic generators used for forced
	// rollbacks.
	Seed uint64

	// SpecDeadline bounds runaway speculation: a wall-clock floor on how
	// long one speculative execution may run. A mispredicted live-in can
	// make a chunk loop essentially forever; the first CheckPoint poll past
	// the execution's deadline rolls it back (RollbackDeadline, counted in
	// Summary.Faults as a watchdog kill). The deadline is fixed at region
	// entry: the larger of SpecDeadline and 8x the point's observed mean
	// chunk latency, so a configured floor never kills a point whose chunks
	// are legitimately slow. Zero (the default) disables it. Regions that
	// loop without polling CheckPoint are beyond its reach (the pollcheck
	// analyzer flags those statically).
	SpecDeadline time.Duration
}

// withDefaults fills zero values.
func (o Options) withDefaults() (Options, error) {
	if o.NumCPUs < 0 {
		return o, fmt.Errorf("core: NumCPUs must be non-negative, got %d", o.NumCPUs)
	}
	if o.Cost == (vclock.CostModel{}) {
		o.Cost = vclock.DefaultCostModel()
	}
	if o.Space == (mem.SpaceConfig{}) {
		o.Space = mem.DefaultSpaceConfig(o.NumCPUs + 1)
	} else {
		o.Space.NumThreads = o.NumCPUs + 1
	}
	o.GBuf = o.GBuf.WithDefaults()
	if o.LBuf == (lbuf.Config{}) {
		o.LBuf = lbuf.DefaultConfig()
	}
	if o.RollbackProb < 0 || o.RollbackProb > 1 {
		return o, fmt.Errorf("core: RollbackProb %v outside [0,1]", o.RollbackProb)
	}
	if o.SpecDeadline < 0 {
		return o, fmt.Errorf("core: SpecDeadline must be non-negative, got %v", o.SpecDeadline)
	}
	return o, nil
}
