package gbuf

import "repro/internal/mem"

// FaultyBackend wraps a Backend for chaos testing: both write paths, Store
// and StoreRange, first consult Trip, and a tripped call returns Full
// without reaching the wrapped backend — exactly the status an exhausted
// buffer produces, so the runtime's real overflow-rollback machinery runs
// end to end. Read and protocol methods pass straight through.
type FaultyBackend struct {
	Backend
	// Trip reports whether the next write-path call should fail Full.
	Trip func() bool
}

// Store injects a Full status when Trip fires.
func (f *FaultyBackend) Store(p mem.Addr, size int, v uint64) Status {
	if f.Trip() {
		return Full
	}
	return f.Backend.Store(p, size, v)
}

// StoreRange injects a Full status when Trip fires.
func (f *FaultyBackend) StoreRange(p mem.Addr, src []byte) Status {
	if f.Trip() {
		return Full
	}
	return f.Backend.StoreRange(p, src)
}
