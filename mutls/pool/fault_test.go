package pool

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/mutls"
)

// TestLeaseReusableAfterKernelPanic: a tenant whose kernel panics on the
// non-speculative thread gets the typed error, and the recycled runtime
// serves the next tenant a verified run — one fault costs one request,
// never the pooled slot.
func TestLeaseReusableAfterKernelPanic(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	opts.HostBudget = 4
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	lease, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := lease.Runtime().RunCtx(context.Background(), func(th *mutls.Thread) {
		panic("tenant boom")
	})
	var kp *mutls.KernelPanic
	if !errors.As(rerr, &kp) {
		t.Fatalf("run error %v (%T), want *mutls.KernelPanic", rerr, rerr)
	}
	lease.Release()

	// The same pooled runtime (Runtimes: 1) must serve the next tenant.
	lease, err = p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after contained panic: %v", err)
	}
	defer lease.Release()
	k := stressKernels[0]
	var seq, spec uint64
	if _, err := lease.Runtime().RunCtx(context.Background(), func(th *mutls.Thread) {
		seq = k.w.Seq(th, k.size)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Runtime().RunCtx(context.Background(), func(th *mutls.Thread) {
		spec = k.w.Spec(th, k.size, bench.SpecOptions{Model: k.w.DefaultModel})
	}); err != nil {
		t.Fatal(err)
	}
	if seq != spec {
		t.Fatalf("post-panic tenant: speculative %#x != sequential %#x", spec, seq)
	}
}

// TestInjectedQueueShed: a KindLeaseFail injected at the queue-admission
// seam sheds exactly the contended Acquire — the fast path never consults
// SiteQueue, so a free runtime is still leased normally — and the shed is
// indistinguishable from a real full queue (ErrOverloaded + Rejected).
func TestInjectedQueueShed(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	opts.HostBudget = 4
	plan := faultinject.NewPlan(1, []faultinject.Rule{
		{Site: faultinject.SiteQueue, Kind: faultinject.KindLeaseFail, Prob: 1},
	})
	ctx := faultinject.NewContext(context.Background(), plan)
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Fast path: the single runtime is free, SiteQueue is never reached.
	lease, err := p.Acquire(ctx)
	if err != nil {
		t.Fatalf("fast-path acquire under a queue-seam plan: %v", err)
	}
	if n := plan.Seq(faultinject.SiteQueue); n != 0 {
		t.Fatalf("fast path consumed %d queue-seam decisions, want 0", n)
	}

	// Contended path: the injection sheds before the waiter ever queues.
	if _, err := p.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("contended acquire error %v, want ErrOverloaded", err)
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d after one injected shed, want 1", got)
	}
	if n := plan.Injected(faultinject.SiteQueue, faultinject.KindLeaseFail); n != 1 {
		t.Errorf("queue/leasefail injections = %d, want 1", n)
	}

	// Without the plan, the same contended shape queues and is served on
	// Release.
	done := make(chan error, 1)
	go func() {
		l2, err := p.Acquire(context.Background())
		if err == nil {
			l2.Release()
		}
		done <- err
	}()
	lease.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire without a plan: %v", err)
	}
}

// TestInjectedGrantDegrade: a KindDegrade injected at the budget-grant
// seam forces a zero-CPU lease that claims nothing from the host budget,
// and the degraded tenant still produces the sequential checksum — the
// graceful-degradation contract under fault injection.
func TestInjectedGrantDegrade(t *testing.T) {
	opts := testOptions()
	opts.Runtimes = 1
	opts.HostBudget = 4
	ctx := faultinject.NewContext(context.Background(), faultinject.NewPlan(2, []faultinject.Rule{
		{Site: faultinject.SiteGrant, Kind: faultinject.KindDegrade, Prob: 1},
	}))
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	lease, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Degraded() || lease.CPUs() != 0 {
		t.Fatalf("injected degrade: CPUs()=%d Degraded()=%v, want 0/true", lease.CPUs(), lease.Degraded())
	}
	st := p.Stats()
	if st.Degraded != 1 || st.ClaimedCPUs != 0 {
		t.Errorf("stats after injected degrade: Degraded=%d ClaimedCPUs=%d, want 1/0", st.Degraded, st.ClaimedCPUs)
	}

	// The degraded lease still runs correctly, just sequentially.
	k := stressKernels[0]
	var seq, spec uint64
	if _, err := lease.Runtime().RunCtx(context.Background(), func(th *mutls.Thread) {
		seq = k.w.Seq(th, k.size)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Runtime().RunCtx(context.Background(), func(th *mutls.Thread) {
		spec = k.w.Spec(th, k.size, bench.SpecOptions{Model: k.w.DefaultModel})
	}); err != nil {
		t.Fatal(err)
	}
	if seq != spec {
		t.Fatalf("degraded tenant: speculative %#x != sequential %#x", spec, seq)
	}
	lease.Release()

	// Without the plan, the next lease gets a real grant again.
	lease, err = p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if lease.CPUs() == 0 {
		t.Error("lease without a plan still degraded")
	}
}
