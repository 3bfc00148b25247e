package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/mutls"
)

// stressKernels is the mixed workload of the concurrency tests: two loop
// shapes (in-order chained forks) and one tree shape (mixed model), at
// sizes small enough that 64 tenants finish quickly under -race.
var stressKernels = []struct {
	w    *bench.Workload
	size bench.Size
}{
	{bench.X3P1, bench.Size{N: 4000}},
	{bench.Mandelbrot, bench.Size{N: 16, M: 200}},
	{bench.MatMult, bench.Size{N: 16}},
}

// testOptions returns pool options sized for the stress kernels.
func testOptions() Options {
	heap := 0
	for _, k := range stressKernels {
		if b := k.w.HeapBytes(k.size); b > heap {
			heap = b
		}
	}
	return Options{
		Runtime: mutls.Options{CPUs: 4, HeapBytes: heap},
	}
}

// seqChecksums runs every stress kernel's sequential version once on a
// throwaway runtime and returns the reference checksums.
func seqChecksums(t *testing.T) []uint64 {
	t.Helper()
	rt, err := mutls.New(testOptions().Runtime)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sums := make([]uint64, len(stressKernels))
	for i, k := range stressKernels {
		i, k := i, k
		if _, err := rt.Run(func(th *mutls.Thread) {
			sums[i] = k.w.Seq(th, k.size)
		}); err != nil {
			t.Fatal(err)
		}
		rt.Recycle()
	}
	return sums
}

// runSpec executes kernel k's TLS version on a leased runtime.
func runSpec(rt *mutls.Runtime, i int) (uint64, error) {
	k := stressKernels[i]
	var sum uint64
	_, err := rt.Run(func(th *mutls.Thread) {
		sum = k.w.Spec(th, k.size, bench.SpecOptions{Model: k.w.DefaultModel})
	})
	return sum, err
}

// TestPoolStress is the multi-tenant acceptance test: 64 concurrent
// clients running mixed kernels against a 4-runtime pool. Every response
// checksum must match the sequential reference, the pool's claimed CPU
// budget must never exceed HostBudget (tracked independently of the
// pool's own accounting), and shutdown must leave no goroutines behind.
func TestPoolStress(t *testing.T) {
	sums := seqChecksums(t)
	before := runtime.NumGoroutine()

	opts := testOptions()
	opts.Runtimes = 4
	opts.HostBudget = runtime.GOMAXPROCS(0)
	opts.QueueLimit = 256 // deep enough that no client is shed
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const perClient = 2
	var claimed atomic.Int64 // independent budget ledger
	var maxClaimed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				lease, err := p.Acquire(context.Background())
				if err != nil {
					errs <- fmt.Errorf("client %d: acquire: %w", c, err)
					return
				}
				now := claimed.Add(int64(lease.CPUs()))
				for {
					old := maxClaimed.Load()
					if now <= old || maxClaimed.CompareAndSwap(old, now) {
						break
					}
				}
				i := (c + r) % len(stressKernels)
				sum, err := runSpec(lease.Runtime(), i)
				if err != nil {
					errs <- fmt.Errorf("client %d: run: %w", c, err)
				} else if sum != sums[i] {
					errs <- fmt.Errorf("client %d: kernel %s checksum %#x, want %#x",
						c, stressKernels[i].w.Name, sum, sums[i])
				}
				claimed.Add(-int64(lease.CPUs()))
				lease.Release()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := p.Stats()
	if s.Acquired != clients*perClient {
		t.Errorf("Acquired = %d, want %d", s.Acquired, clients*perClient)
	}
	if s.Released != s.Acquired {
		t.Errorf("Released = %d, Acquired = %d — leaked leases", s.Released, s.Acquired)
	}
	if s.Rejected != 0 {
		t.Errorf("Rejected = %d with a deep queue", s.Rejected)
	}
	if s.ClaimedCPUs != 0 || s.Waiting != 0 {
		t.Errorf("idle pool holds claims: %+v", s)
	}
	if s.MaxClaimedCPUs > s.HostBudget {
		t.Errorf("pool ledger: MaxClaimedCPUs %d exceeds HostBudget %d", s.MaxClaimedCPUs, s.HostBudget)
	}
	if int(maxClaimed.Load()) > opts.HostBudget {
		t.Errorf("independent ledger: claimed CPUs peaked at %d, budget %d", maxClaimed.Load(), opts.HostBudget)
	}

	p.Close()
	// Drained shutdown leaves no pool or runtime goroutines. Workers exit
	// asynchronously after their task channels close, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked across pool lifecycle: %d before, %d after", before, now)
	}
}

// TestPoolBudgetDegradation: when the host budget is exhausted, later
// leases degrade to sequential execution — correct results, zero commits
// — and budget returned by a release is granted again.
func TestPoolBudgetDegradation(t *testing.T) {
	sums := seqChecksums(t)
	opts := testOptions()
	opts.Runtimes = 2
	opts.Runtime.CPUs = 2
	opts.HostBudget = 2
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx := context.Background()
	l1, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if l1.CPUs() != 2 || l1.Degraded() {
		t.Fatalf("first lease granted %d CPUs, want the full budget 2", l1.CPUs())
	}
	l2, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Degraded() {
		t.Fatalf("second lease granted %d CPUs from an exhausted budget", l2.CPUs())
	}
	sum, err := runSpec(l2.Runtime(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum != sums[0] {
		t.Errorf("degraded run checksum %#x, want %#x", sum, sums[0])
	}
	if s := l2.Runtime().Stats(); s.Commits != 0 || s.Rollbacks != 0 {
		t.Errorf("degraded lease speculated: %d commits, %d rollbacks", s.Commits, s.Rollbacks)
	}
	if got := p.Stats().Degraded; got != 1 {
		t.Errorf("Stats.Degraded = %d, want 1", got)
	}

	// Returned budget is granted to the next tenant.
	l1.Release()
	l2.Release()
	l3, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if l3.CPUs() != 2 {
		t.Errorf("post-release lease granted %d CPUs, want 2", l3.CPUs())
	}
	l3.Release()
}

// TestPoolQueueLimit: waiters beyond QueueLimit are shed with
// ErrOverloaded; NoQueue sheds immediately.
func TestPoolQueueLimit(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	opts.QueueLimit = 1
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One waiter occupies the queue slot...
	got := make(chan error, 1)
	go func() {
		l, err := p.Acquire(context.Background())
		if l != nil {
			defer l.Release()
		}
		got <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Stats().Waiting != 1 {
		t.Fatal("waiter never queued")
	}
	// ...so the next Acquire is shed.
	if _, err := p.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue Acquire: err = %v, want ErrOverloaded", err)
	}
	if p.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", p.Stats().Rejected)
	}

	held.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

// TestPoolNoQueue: NoQueue converts every contended Acquire into an
// immediate ErrOverloaded.
func TestPoolNoQueue(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	opts.QueueLimit = NoQueue
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	held.Release()
}

// TestPoolAcquireContext: a context that is already done is refused before
// any lease, even with a runtime free (but a closed pool says ErrClosed
// first), and a queued Acquire honours its context.
func TestPoolAcquireContext(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	expired, expire := context.WithCancel(context.Background())
	expire()
	if l, err := p.Acquire(expired); !errors.Is(err, context.Canceled) {
		if l != nil {
			l.Release() // or the deferred Close waits for it forever
		}
		t.Fatalf("expired context on a free pool: err = %v, want context.Canceled", err)
	}
	if s := p.Stats(); s.Acquired != 0 || s.Released != 0 {
		t.Fatalf("expired context took a lease: %+v", s)
	}
	defer func() {
		p.Close()
		if _, err := p.Acquire(expired); !errors.Is(err, ErrClosed) {
			t.Errorf("expired context on a closed pool: err = %v, want ErrClosed", err)
		}
	}()

	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx)
		got <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	held.Release()
}

// TestPoolDoReleasesOnEveryPath: Do hands the lease back when fn returns,
// errs or panics (the panic reaches Do's caller), returns fn's error, and
// the next Do gets the same runtime, recycled. A leaked lease fails the test
// without closing the pool, since Close would wait for it forever.
func TestPoolDoReleasesOnEveryPath(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("tenant error")
	cases := []struct {
		name      string
		end       func() error
		wantErr   error
		wantPanic any
	}{
		{"return", func() error { return nil }, nil, nil},
		{"error", func() error { return boom }, boom, nil},
		{"panic", func() error { panic("tenant panic") }, nil, "tenant panic"},
		{"return after a panic", func() error { return nil }, nil, nil},
	}
	var last *mutls.Runtime
	for i, c := range cases {
		var err error
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			err = p.Do(context.Background(), func(l *Lease) error {
				rt := l.Runtime()
				if last != nil && rt != last {
					t.Errorf("%s: Do leased %p, want the recycled %p", c.name, rt, last)
				}
				if n := rt.Space().Heap.InUse(); n != 0 {
					t.Errorf("%s: runtime not recycled, %d bytes of heap in use", c.name, n)
				}
				last = rt
				if _, err := rt.Run(func(th *mutls.Thread) { th.Alloc(1 << 10) }); err != nil {
					return err
				}
				return c.end()
			})
		}()
		if err != c.wantErr || recovered != c.wantPanic {
			t.Errorf("%s: Do = %v, panic %v; want %v, panic %v", c.name, err, recovered, c.wantErr, c.wantPanic)
		}
		if s := p.Stats(); s.Acquired != int64(i+1) || s.Released != s.Acquired || s.ClaimedCPUs != 0 {
			t.Fatalf("%s: lease not handed back: %+v", c.name, s)
		}
	}
	p.Close()
}

// TestPoolDoRefusesWithoutCallingFn: when no lease can be had — an injected
// acquire failure, a full queue, a closed pool, a done context — Do returns
// Acquire's typed error and never calls fn.
func TestPoolDoRefusesWithoutCallingFn(t *testing.T) {
	expired, expire := context.WithCancel(context.Background())
	expire()
	bg := context.Background()
	failing := faultinject.NewContext(bg, faultinject.NewPlan(1, []faultinject.Rule{
		{Site: faultinject.SiteAcquire, Kind: faultinject.KindLeaseFail, Prob: 1},
	}))
	cases := []struct {
		name  string
		queue int
		do    func(p *Pool, fn func(*Lease) error) error
		want  error
	}{
		{"injected acquire failure", 0, func(p *Pool, fn func(*Lease) error) error { return p.Do(failing, fn) }, ErrOverloaded},
		{"full queue", NoQueue, func(p *Pool, fn func(*Lease) error) error {
			return p.Do(bg, func(*Lease) error { return p.Do(bg, fn) })
		}, ErrOverloaded},
		{"closed pool", 0, func(p *Pool, fn func(*Lease) error) error {
			p.Close()
			return p.Do(bg, fn)
		}, ErrClosed},
		{"done context", 0, func(p *Pool, fn func(*Lease) error) error { return p.Do(expired, fn) }, context.Canceled},
	}
	for _, c := range cases {
		opts := testOptions()
		opts.Runtimes = 1
		opts.QueueLimit = c.queue
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		called := false
		err = c.do(p, func(*Lease) error { called = true; return nil })
		if !errors.Is(err, c.want) || called {
			t.Errorf("%s: Do = %v with fn called %v, want %v without", c.name, err, called, c.want)
		}
		if s := p.Stats(); s.Released != s.Acquired || s.ClaimedCPUs != 0 {
			t.Fatalf("%s: lease not handed back: %+v", c.name, s) // and the pool left open
		}
		p.Close()
	}
}

// TestPoolClose: Close drains in-flight leases before closing runtimes,
// is idempotent under concurrent calls, and fails queued and subsequent
// Acquires with ErrClosed.
func TestPoolClose(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 2
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	lease, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		// Consume the second runtime, then queue a third tenant that must
		// be woken by Close.
		l2, err := p.Acquire(context.Background())
		if err != nil {
			queued <- err
			return
		}
		defer l2.Release()
		_, err = p.Acquire(context.Background())
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var released atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		released.Store(true)
		lease.Release()
	}()

	done := make(chan struct{})
	go func() { p.Close(); close(done) }() // concurrent with the Close below
	p.Close()
	<-done
	if !released.Load() {
		t.Error("Close returned before the in-flight lease was released")
	}
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Errorf("queued Acquire at close: err = %v, want ErrClosed", err)
	}
	if _, err := p.Acquire(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Acquire after Close: err = %v, want ErrClosed", err)
	}
}

// TestPoolDoubleRelease: only the first Release acts.
func TestPoolDoubleRelease(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	lease, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	lease.Release()
	if s := p.Stats(); s.Released != 1 {
		t.Fatalf("Released = %d after double release, want 1", s.Released)
	}
	// The pool still holds exactly one runtime: a second Acquire after one
	// re-lease must queue, not succeed instantly off a duplicate.
	l2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case rt := <-p.free:
		t.Fatalf("duplicate runtime %p in the free list", rt)
	default:
	}
	l2.Release()
}

// TestPoolRecycleBetweenTenants: a tenant never sees the previous
// tenant's statistics or leaked heap.
func TestPoolRecycleBetweenTenants(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	l1, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Runtime().Run(func(th *mutls.Thread) {
		th.Alloc(1 << 10) // leak deliberately
	}); err != nil {
		t.Fatal(err)
	}
	if l1.Runtime().Space().Heap.InUse() == 0 {
		t.Fatal("test setup: leak did not register")
	}
	l1.Release()

	l2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release()
	if got := l2.Runtime().Space().Heap.InUse(); got != 0 {
		t.Errorf("next tenant inherited %d bytes of heap", got)
	}
	if s := l2.Runtime().Stats(); s.Executions != 0 {
		t.Errorf("next tenant inherited statistics: %+v", s)
	}
}
