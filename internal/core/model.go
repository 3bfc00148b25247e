// Package core implements the MUTLS thread-level speculation runtime: the
// ThreadManager/ThreadData modules, the fork/join protocol with its
// flag-based synchronization barrier, and the forking models — including the
// paper's novel tree-form mixed model in which every thread may speculate
// and a rollback cascades only within its subtree.
//
// Programs use the package the way code generated by the paper's LLVM
// speculator pass uses the C++ TLS runtime library: they are written in the
// "transformed" shape of Figure 2, with explicit fork/join points indexed by
// per-frame ranks arrays, speculative regions that fetch their live-ins from
// the LocalBuffer, check/terminate/barrier points, and synchronization
// counters that tell the joining thread where the speculative thread
// stopped.
//
// Application code should normally not target this layer directly: the
// public mutls package packages the driving patterns (chunked loops,
// speculative reductions, tree-form recursion) on top of it, keeping the
// protocol plumbing in one place.
package core

import "fmt"

// Model selects the forking model of a fork point (the `model` argument of
// __builtin_MUTLS_fork).
type Model uint8

const (
	// InOrder allows only the most speculative thread to fork, producing
	// the linear chains that suit loop-level speculation.
	InOrder Model = iota
	// OutOfOrder allows only the non-speculative thread to fork, the
	// classic method-level speculation shape. Parallelism on a loop is
	// bounded by two threads (paper §II).
	OutOfOrder
	// Mixed lets every thread speculate, organizing threads as a tree whose
	// reverse in-order traversal is the sequential execution order; a
	// rollback cascades only within the affected subtree.
	Mixed
	// MixedLinear is the baseline mixed model of Mitosis/POSH for the
	// ablation study: every thread may fork, but threads are kept in one
	// linear logical order and a rollback squashes every logically later
	// thread, like in-order speculation.
	MixedLinear
)

// String returns the model name as used in the paper's Figure 10 legend.
func (m Model) String() string {
	switch m {
	case InOrder:
		return "inorder"
	case OutOfOrder:
		return "outoforder"
	case Mixed:
		return "mixed"
	case MixedLinear:
		return "mixedlinear"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel converts a Figure 10 legend name back to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "inorder":
		return InOrder, nil
	case "outoforder":
		return OutOfOrder, nil
	case "mixed":
		return Mixed, nil
	case "mixedlinear":
		return MixedLinear, nil
	}
	return 0, fmt.Errorf("core: unknown forking model %q", s)
}

// Rank identifies a virtual CPU. Rank 0 is the non-speculative thread;
// speculative CPUs are numbered 1..NumCPUs as in the paper.
type Rank int32

// RollbackReason explains why a speculative execution was discarded.
type RollbackReason uint8

const (
	// RollbackNone marks a committed execution.
	RollbackNone RollbackReason = iota
	// RollbackValidation is a read-set conflict with main memory.
	RollbackValidation
	// RollbackLocals is a live register variable misprediction detected by
	// the parent's MUTLS_validate_local calls.
	RollbackLocals
	// RollbackInvalidAddress is an access outside the global address space
	// and the thread's own stack.
	RollbackInvalidAddress
	// RollbackOverflow is an exhausted temporary (overflow) buffer.
	RollbackOverflow
	// RollbackNoSync is a NOSYNC order violation or cascading squash.
	RollbackNoSync
	// RollbackUnsafeOp is an unsafe operation (allocation, misaligned
	// access) attempted speculatively without a preceding terminate point.
	RollbackUnsafeOp
	// RollbackInjected is a forced rollback from the Figure 11 sensitivity
	// experiment.
	RollbackInjected
	// RollbackFault is a contained speculative fault: the region panicked
	// (out-of-bounds indexing, division by zero, nil dereference — routine
	// events when speculating on mispredicted live-ins) and the panic was
	// converted into a squash instead of crashing the process. The joining
	// thread re-executes the chunk non-speculatively.
	RollbackFault
	// RollbackDeadline is a runaway-speculation kill: a CheckPoint poll
	// found the execution past its fork point's deadline (SpecDeadline).
	RollbackDeadline
)

// String names the reason.
func (r RollbackReason) String() string {
	switch r {
	case RollbackNone:
		return "none"
	case RollbackValidation:
		return "validation"
	case RollbackLocals:
		return "locals"
	case RollbackInvalidAddress:
		return "invalid-address"
	case RollbackOverflow:
		return "overflow"
	case RollbackNoSync:
		return "nosync"
	case RollbackUnsafeOp:
		return "unsafe-op"
	case RollbackInjected:
		return "injected"
	case RollbackFault:
		return "fault"
	case RollbackDeadline:
		return "deadline"
	}
	return fmt.Sprintf("RollbackReason(%d)", uint8(r))
}
