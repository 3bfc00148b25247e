// Package pool turns the single-program MUTLS runtime into a multi-tenant
// speculation service. A Pool owns a fixed set of mutls.Runtimes and leases
// them to concurrent clients; between leases each runtime is recycled
// (statistics, fork-point namespace and simulated heap reset) rather than
// rebuilt, so its GlobalBuffers, LocalBuffers and arena survive across
// tenants.
//
// The pool is also the admission controller. Every lease is granted a
// number of speculative virtual CPUs out of a shared host budget
// (GOMAXPROCS-aware by default): when the budget is exhausted, later
// leases degrade gracefully to sequential execution (zero CPUs — every
// fork is refused, the program still runs) instead of oversubscribing the
// host. The budget is a static split made at acquire time: it decides how
// wide a lease may speculate at most, and which leases are labelled
// degraded. Whether a granted CPU is actually used is the runtime's own
// decision under real timing, fork by fork: it refuses a fork while every
// proc of the host already runs a thread with work, the other leases'
// threads included (core's Fork; Summary.RefusedNoProc counts them), so a
// granted lease beside busy tenants runs as sequentially as a degraded one
// and speculates again the moment a proc falls idle.
//
// Do is the way in: it leases a runtime, runs the caller's function on the
// lease and releases it on every path out, panics included, so a lease
// taken through Do cannot leak. Acquire and Lease.Release are the
// low-level pair underneath, for a caller that times the two halves apart.
//
// When every runtime is leased, Acquire queues up to a bounded depth and
// then fails fast with ErrOverloaded, so callers shed load instead of
// piling up. Deadlines propagate twice: a context that is already done is
// refused before any lease, and one that ends while queued unwinds the
// wait; the leased runtime's RunCtx then unwinds a too-slow run at the
// next cancellation point.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/mutls"
)

// ErrClosed is returned by Acquire on a closed (or closing) pool.
var ErrClosed = errors.New("pool: pool is closed")

// ErrOverloaded is returned by Acquire when every runtime is leased and
// the wait queue is at QueueLimit — the backpressure signal.
var ErrOverloaded = errors.New("pool: overloaded (queue full)")

// NoQueue as a QueueLimit makes Acquire fail fast with ErrOverloaded
// whenever no runtime is immediately free.
const NoQueue = -1

// Options configures a Pool. The zero value of every field selects a
// sensible default.
type Options struct {
	// Runtimes is the number of pooled runtimes — the maximum number of
	// concurrently running tenants. Default 2.
	Runtimes int

	// HostBudget bounds the total speculative virtual CPUs claimed by
	// in-flight leases across the whole pool. Default
	// runtime.GOMAXPROCS(0): virtual CPUs map to goroutines that are only
	// worth running while the host has cores for them. A lease is granted
	// min(Runtime.CPUs, remaining budget) CPUs; zero granted means the
	// tenant runs sequentially.
	HostBudget int

	// QueueLimit bounds how many Acquire calls may wait for a runtime
	// before the pool sheds load with ErrOverloaded. Default 4×Runtimes;
	// NoQueue disables queueing entirely.
	QueueLimit int

	// Runtime is the template every pooled runtime is built from.
	// Runtime.CPUs is the per-lease speculation width (default 4); the
	// pool's HostBudget is what keeps the claimed width within the host.
	Runtime mutls.Options
}

func (o Options) withDefaults() Options {
	if o.Runtimes <= 0 {
		o.Runtimes = 2
	}
	if o.HostBudget <= 0 {
		o.HostBudget = runtime.GOMAXPROCS(0)
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 4 * o.Runtimes
	}
	if o.QueueLimit < 0 {
		o.QueueLimit = 0
	}
	if o.Runtime.CPUs <= 0 {
		o.Runtime.CPUs = 4
	}
	return o
}

// Stats is a point-in-time snapshot of the pool's admission counters.
type Stats struct {
	// Runtimes and HostBudget echo the resolved configuration.
	Runtimes   int `json:"runtimes"`
	HostBudget int `json:"host_budget"`

	// Acquired/Released count completed lease handshakes; Rejected counts
	// ErrOverloaded fast-fails; Degraded counts leases granted zero CPUs.
	Acquired int64 `json:"acquired"`
	Released int64 `json:"released"`
	Rejected int64 `json:"rejected"`
	Degraded int64 `json:"degraded"`

	// ClaimedCPUs is the budget currently out on leases; MaxClaimedCPUs is
	// its high-water mark — the pool's invariant is MaxClaimedCPUs ≤
	// HostBudget, ever.
	ClaimedCPUs    int `json:"claimed_cpus"`
	MaxClaimedCPUs int `json:"max_claimed_cpus"`

	// Waiting is the current queue depth.
	Waiting int `json:"waiting"`
}

// Pool is a shared, admission-controlled set of speculation runtimes.
// All methods are safe for concurrent use.
type Pool struct {
	opts Options
	free chan *mutls.Runtime

	mu         sync.Mutex
	claimed    int
	maxClaimed int
	waiting    int
	closed     bool

	closing   chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	acquired atomic.Int64
	released atomic.Int64
	rejected atomic.Int64
	degraded atomic.Int64
}

// New builds the pool and all of its runtimes up front, so a tenant never
// pays construction cost on the request path.
func New(opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	p := &Pool{
		opts:    opts,
		free:    make(chan *mutls.Runtime, opts.Runtimes),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < opts.Runtimes; i++ {
		rt, err := mutls.New(opts.Runtime)
		if err != nil {
			for len(p.free) > 0 {
				(<-p.free).Close()
			}
			return nil, err
		}
		p.free <- rt
	}
	return p, nil
}

// Lease is one tenant's hold on a pooled runtime. Release it when the
// request is done; Release is idempotent.
type Lease struct {
	p        *Pool
	rt       *mutls.Runtime
	cpus     int
	released atomic.Bool
}

// Runtime returns the leased runtime. It must not be used after Release.
func (l *Lease) Runtime() *mutls.Runtime { return l.rt }

// CPUs is the number of speculative virtual CPUs this lease was granted
// out of the host budget.
func (l *Lease) CPUs() int { return l.cpus }

// Degraded reports whether the budget was exhausted at acquire time and
// the lease runs sequentially (every fork refused).
func (l *Lease) Degraded() bool { return l.cpus == 0 }

// Release recycles the runtime (statistics, fork points and heap reset),
// returns the lease's CPUs to the budget and hands the runtime to the
// next waiter. Safe to call more than once; only the first call acts.
func (l *Lease) Release() {
	if !l.released.CompareAndSwap(false, true) {
		return
	}
	l.rt.Recycle()
	l.p.mu.Lock()
	l.p.claimed -= l.cpus
	l.p.mu.Unlock()
	l.p.released.Add(1)
	l.p.free <- l.rt
}

// Do leases a runtime, runs fn on the lease and releases the lease when fn
// returns, errs or panics (the panic then propagates). An Acquire failure
// is returned unchanged and fn is not called; otherwise Do returns fn's
// error.
func (p *Pool) Do(ctx context.Context, fn func(*Lease) error) error {
	l, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	defer l.Release()
	return fn(l)
}

// Acquire leases a runtime. A closed pool refuses with ErrClosed and a
// done ctx with its error, before any runtime is taken. If none is free it
// waits — bounded by QueueLimit (ErrOverloaded beyond it), by ctx and by
// Close. On success the lease's runtime has its CPU limit set to the
// granted budget share. The lease must be released; Do does that itself.
// A fault-injection plan ctx carries (faultinject.NewContext) decides at
// the acquire, queue and grant seams.
func (p *Pool) Acquire(ctx context.Context) (*Lease, error) {
	select {
	case <-p.closing:
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := faultinject.From(ctx)
	if plan.Decide(faultinject.SiteAcquire) == faultinject.KindLeaseFail {
		// Injected admission failure: shaped exactly like a full queue so
		// callers exercise their shed/retry handling.
		p.rejected.Add(1)
		return nil, ErrOverloaded
	}
	// Fast path: a runtime is free right now.
	select {
	case rt := <-p.free:
		return p.lease(rt, plan)
	default:
	}

	// Queue-admission seam: the fast path missed, so this Acquire is about
	// to queue (or shed). An injected shed exercises the caller's
	// backpressure handling on the contended path specifically; an injected
	// delay widens the window in which the queue fills behind this waiter.
	switch plan.Decide(faultinject.SiteQueue) {
	case faultinject.KindLeaseFail:
		p.rejected.Add(1)
		return nil, ErrOverloaded
	case faultinject.KindDelay:
		time.Sleep(faultinject.Delay)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.waiting >= p.opts.QueueLimit {
		p.mu.Unlock()
		p.rejected.Add(1)
		return nil, ErrOverloaded
	}
	p.waiting++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.waiting--
		p.mu.Unlock()
	}()

	select {
	case rt := <-p.free:
		return p.lease(rt, plan)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closing:
		return nil, ErrClosed
	}
}

// lease claims a budget share for rt and wraps it. If the pool closed
// while the runtime was in flight, it is handed back to the shutdown
// collector instead.
func (p *Pool) lease(rt *mutls.Runtime, plan *faultinject.Plan) (*Lease, error) {
	// Budget-grant seam: an injected degrade is shaped exactly like an
	// exhausted host budget — zero CPUs granted, nothing claimed, and the
	// tenant's run must still complete sequentially with the right result.
	forceDegrade := plan.Decide(faultinject.SiteGrant) == faultinject.KindDegrade
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.free <- rt // capacity Runtimes: never blocks, Close collects it
		return nil, ErrClosed
	}
	grant := p.opts.HostBudget - p.claimed
	if grant > p.opts.Runtime.CPUs {
		grant = p.opts.Runtime.CPUs
	}
	if grant < 0 || forceDegrade {
		grant = 0
	}
	p.claimed += grant
	if p.claimed > p.maxClaimed {
		p.maxClaimed = p.claimed
	}
	p.mu.Unlock()

	rt.SetCPULimit(grant)
	p.acquired.Add(1)
	if grant == 0 {
		p.degraded.Add(1)
	}
	return &Lease{p: p, rt: rt, cpus: grant}, nil
}

// Close drains the pool and closes every runtime. It blocks until all
// in-flight leases are released, then rejects queued and future Acquires
// with ErrClosed. Idempotent; concurrent calls all block until shutdown
// completes.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.closing)
		for i := 0; i < p.opts.Runtimes; i++ {
			rt := <-p.free
			rt.Close()
		}
		close(p.done)
	})
	<-p.done
}

// Stats snapshots the admission counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	claimed, maxClaimed, waiting := p.claimed, p.maxClaimed, p.waiting
	p.mu.Unlock()
	return Stats{
		Runtimes:       p.opts.Runtimes,
		HostBudget:     p.opts.HostBudget,
		Acquired:       p.acquired.Load(),
		Released:       p.released.Load(),
		Rejected:       p.rejected.Load(),
		Degraded:       p.degraded.Load(),
		ClaimedCPUs:    claimed,
		MaxClaimedCPUs: maxClaimed,
		Waiting:        waiting,
	}
}
