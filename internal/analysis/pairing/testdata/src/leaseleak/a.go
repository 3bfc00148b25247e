// Package a is leaseleak golden testdata: leaked, discarded, deferred,
// error-path-exempt and suppressed pool lease acquisitions.
package a

import (
	"context"

	"repro/mutls/pool"
)

func leakOnBranch(p *pool.Pool, cond bool) error {
	lease, err := p.Acquire(context.Background()) // want "LEASE001"
	if err != nil {
		return err // error path never granted the lease: exempt
	}
	if cond {
		return nil // leaks the lease
	}
	lease.Release()
	return nil
}

func discarded(p *pool.Pool) {
	p.Acquire(context.Background()) // want "LEASE002"
}

func deferred(p *pool.Pool) error {
	lease, err := p.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer lease.Release()
	return nil
}

func probe(p *pool.Pool) {
	lease, _ := p.Acquire(context.Background())
	if lease != nil {
		lease.Release() // handed straight back: clean
	}
}

func suppressed(p *pool.Pool, hold func(*pool.Lease)) {
	lease, _ := p.Acquire(context.Background()) //lint:allow LEASE001 held for the process lifetime, released on shutdown
	hold(lease)
}

func riskyFuncValue(p *pool.Pool, work func()) error {
	lease, err := p.Acquire(context.Background()) // want "LEASE001"
	if err != nil {
		return err
	}
	work() // may panic: the non-deferred Release below never runs
	lease.Release()
	return nil
}

type runner interface{ Run() }

func riskyInterface(p *pool.Pool, r runner) error {
	lease, err := p.Acquire(context.Background()) // want "LEASE001"
	if err != nil {
		return err
	}
	r.Run() // dynamic dispatch: unknown body, may panic
	lease.Release()
	return nil
}

func staticBetween(p *pool.Pool) error {
	lease, err := p.Acquire(context.Background())
	if err != nil {
		return err
	}
	helper() // static call: assumed panic-free, non-deferred Release is fine
	lease.Release()
	return nil
}

// loopCarried reacquires into the same variable each iteration while the
// previous lease is still held; only the last one is ever released. The
// old lexical engine saw "a Release after the Acquire" and passed it —
// the flow-sensitive engine follows the back edge.
func loopCarried(p *pool.Pool, n int, work func(*pool.Lease)) {
	var lease *pool.Lease
	for i := 0; i < n; i++ {
		lease, _ = p.Acquire(context.Background()) // want "LEASE001"
		work(lease)
	}
	if lease != nil {
		lease.Release()
	}
}

// releasedEachIteration is the paired version of loopCarried: clean.
func releasedEachIteration(p *pool.Pool, n int) {
	for i := 0; i < n; i++ {
		lease, err := p.Acquire(context.Background())
		if err != nil {
			continue
		}
		use(lease)
		lease.Release()
	}
}

// earlyContinue skips the release on the continue path, so the next
// iteration reacquires while still holding.
func earlyContinue(p *pool.Pool, n int, busy func(int) bool) {
	for i := 0; i < n; i++ {
		lease, err := p.Acquire(context.Background()) // want "LEASE001"
		if err != nil {
			continue
		}
		if busy(i) {
			continue // leaks this iteration's lease
		}
		lease.Release()
	}
}

// reassigned overwrites the held handle before releasing it; only the
// second lease is returned to the pool.
func reassigned(p *pool.Pool) {
	lease, _ := p.Acquire(context.Background()) // want "LEASE001"
	lease, _ = p.Acquire(context.Background())
	if lease != nil {
		lease.Release()
	}
}

// loopReleasedViaBreak holds within each iteration but releases on every
// exit, including the break path: clean under the flow engine.
func loopReleasedViaBreak(p *pool.Pool) {
	for {
		lease, err := p.Acquire(context.Background())
		if err != nil {
			return
		}
		if isDone() {
			lease.Release()
			break
		}
		lease.Release()
	}
}

func helper() {}

func use(*pool.Lease) {}

func isDone() bool { return true }
