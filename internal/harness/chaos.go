package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/mutls"
	"repro/mutls/pool"
)

// ChaosConfig drives RunChaos, the seeded fault-injection sweep.
type ChaosConfig struct {
	// Seed derives every combination's injection plan: it fixes each
	// seam's decision stream. How many decisions a run draws, and which
	// execution draws each, follow the schedule, so two sweeps under one
	// seed may inject different counts.
	Seed uint64
	// Quick restricts the sweep to a CI-sized subset (three kernels, one
	// storm per combination).
	Quick bool
	// CPUs is the speculative virtual-CPU count of every run; zero selects
	// 7 (8 total CPUs, the paper's mid-axis point).
	CPUs int
	// Storms is the number of injected runs per kernel/model/backend
	// combination; zero selects 2 (1 under Quick).
	Storms int
}

// chaosMixes are the injection mixes the sweep rotates through. Each mix
// stresses a different containment surface: spec-side panics (the
// panic-as-misspeculation path), protocol-seam panics on either side
// (kernel containment, open-fork abandonment, a failed allocation),
// forced rollbacks and overflows (squash/re-execute machinery), and
// latency (delays that shift the schedule without faulting anything).
var chaosMixes = []struct {
	name  string
	rules []faultinject.Rule
}{
	{"spec-panic", []faultinject.Rule{
		{Site: faultinject.SitePoll, Kind: faultinject.KindPanic, Prob: 0.003},
	}},
	{"seam-panic", []faultinject.Rule{
		{Site: faultinject.SiteFork, Kind: faultinject.KindPanic, Prob: 0.01},
		{Site: faultinject.SiteJoin, Kind: faultinject.KindPanic, Prob: 0.005},
		{Site: faultinject.SiteAlloc, Kind: faultinject.KindPanic, Prob: 0.004},
	}},
	{"squash", []faultinject.Rule{
		{Site: faultinject.SitePoll, Kind: faultinject.KindRollback, Prob: 0.005},
		{Site: faultinject.SiteStore, Kind: faultinject.KindOverflow, Prob: 0.002},
		{Site: faultinject.SiteCommit, Kind: faultinject.KindRollback, Prob: 0.1},
	}},
	{"latency", []faultinject.Rule{
		{Site: faultinject.SitePoll, Kind: faultinject.KindDelay, Prob: 0.002},
		{Site: faultinject.SiteJoin, Kind: faultinject.KindDelay, Prob: 0.02},
		{Site: faultinject.SiteCommit, Kind: faultinject.KindDelay, Prob: 0.02},
	}},
	{"storm", []faultinject.Rule{
		{Site: faultinject.SitePoll, Kind: faultinject.KindPanic, Prob: 0.002},
		{Site: faultinject.SitePoll, Kind: faultinject.KindRollback, Prob: 0.003},
		{Site: faultinject.SiteFork, Kind: faultinject.KindPanic, Prob: 0.005},
		{Site: faultinject.SiteStore, Kind: faultinject.KindOverflow, Prob: 0.001},
		{Site: faultinject.SiteCommit, Kind: faultinject.KindRollback, Prob: 0.05},
		{Site: faultinject.SiteCommit, Kind: faultinject.KindDelay, Prob: 0.01},
		{Site: faultinject.SiteFork, Kind: faultinject.KindCancel, Prob: 0.001},
		{Site: faultinject.SiteAlloc, Kind: faultinject.KindPanic, Prob: 0.002},
	}},
}

// chaosModels is the full forking-model axis.
var chaosModels = []mutls.Model{mutls.InOrder, mutls.OutOfOrder, mutls.Mixed, mutls.MixedLinear}

// RunChaos sweeps seeded fault storms over the benchmark suite: every
// kernel × forking model × GlobalBuffer backend runs Storms executions
// whose context carries the combination's plan, followed by one execution
// without a plan, asserting after each run that (a) a run that completes
// without error produced the sequential checksum — injected faults may
// change the schedule, never the result; (b) a run may only fail with the
// typed containment errors (KernelPanic from a seam panic on the
// non-speculative thread, ErrCancelled from an injected cancel); and (c)
// no goroutines leak once the runtime closes. cfg.Seed fixes each seam's
// decision stream, not the schedule: the table's injection counts may
// differ between two sweeps under one seed.
func RunChaos(cfg ChaosConfig, out io.Writer) error {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 7
	}
	if cfg.Storms <= 0 {
		cfg.Storms = 2
		if cfg.Quick {
			cfg.Storms = 1
		}
	}
	workloads := bench.Everything()
	if cfg.Quick {
		workloads = []*bench.Workload{bench.X3P1, bench.FFT, bench.BH}
	}
	backends := mutls.Backends()

	baseline := settledGoroutines()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(out, "CHAOS SWEEP. seed=%d storms=%d cpus=%d quick=%v\n",
		cfg.Seed, cfg.Storms, cfg.CPUs, cfg.Quick)
	fmt.Fprintln(tw, "Benchmark\tModel\tBackend\tMix\tRuns\tContained\tInjected")

	combo := 0
	for _, w := range workloads {
		seqCfg := bench.RunConfig{CPUs: 1, Size: w.CISize, Timing: mutls.Virtual}
		seq, err := bench.MeasureSeq(w, seqCfg)
		if err != nil {
			return fmt.Errorf("chaos %s sequential: %w", w.Name, err)
		}
		for _, model := range chaosModels {
			for _, backend := range backends {
				mix := chaosMixes[combo%len(chaosMixes)]
				combo++
				plan := faultinject.NewPlan(cfg.Seed^uint64(combo)*0x9E3779B97F4A7C15, mix.rules)
				contained := 0
				for storm := 0; storm < cfg.Storms+1; storm++ {
					// The last iteration runs the same combination without
					// the plan: a post-storm runtime configuration must
					// produce clean sequential-equivalent runs.
					faults := plan
					if storm == cfg.Storms {
						faults = nil
					}
					runCfg := bench.RunConfig{
						CPUs:         cfg.CPUs,
						Size:         w.CISize,
						Model:        model,
						Timing:       mutls.Virtual,
						Buffering:    mutls.Buffering{Backend: backend},
						Faults:       faults,
						SpecDeadline: 250 * time.Millisecond,
					}
					m, err := bench.MeasureSpec(w, runCfg)
					switch {
					case err == nil:
						if m.Checksum != seq.Checksum {
							return fmt.Errorf("chaos %s/%v/%s/%s storm %d: checksum %#x != sequential %#x",
								w.Name, model, backend, mix.name, storm, m.Checksum, seq.Checksum)
						}
					case isContained(err):
						if storm == cfg.Storms {
							return fmt.Errorf("chaos %s/%v/%s/%s: run without a plan still failed: %w",
								w.Name, model, backend, mix.name, err)
						}
						contained++
					default:
						return fmt.Errorf("chaos %s/%v/%s/%s storm %d: uncontained failure: %w",
							w.Name, model, backend, mix.name, storm, err)
					}
				}
				if leaked, n := goroutineLeak(baseline); leaked {
					return fmt.Errorf("chaos %s/%v/%s/%s: goroutine leak (%d > baseline %d)",
						w.Name, model, backend, mix.name, n, baseline)
				}
				fmt.Fprintf(tw, "%s\t%v\t%s\t%s\t%d\t%d\t%v\n",
					w.Name, model, backend, mix.name, cfg.Storms+1, contained, plan)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return poolStorm(cfg, out, baseline)
}

// poolStorm is the admission-plane leg of the sweep: concurrent tenants
// hammer a small pool whose acquire, queue-admission and budget-grant
// seams are all armed. The invariants mirror the run-plane ones — a shed
// Acquire may only fail with ErrOverloaded, a degraded (zero-CPU) lease
// must still produce the sequential checksum, the budget high-water mark
// never exceeds the host budget, a tenant without a plan is served
// cleanly, and nothing leaks on Close. The tenants' Acquire contexts carry
// the plan; their runs do not.
func poolStorm(cfg ChaosConfig, out io.Writer, baseline int) error {
	w := bench.X3P1
	size := w.CISize
	seq, err := bench.MeasureSeq(w, bench.RunConfig{CPUs: 1, Size: size, Timing: mutls.Virtual})
	if err != nil {
		return fmt.Errorf("chaos pool sequential: %w", err)
	}

	plan := faultinject.NewPlan(cfg.Seed^0xC0FFEE, []faultinject.Rule{
		{Site: faultinject.SiteAcquire, Kind: faultinject.KindLeaseFail, Prob: 0.15},
		{Site: faultinject.SiteQueue, Kind: faultinject.KindLeaseFail, Prob: 0.25},
		{Site: faultinject.SiteQueue, Kind: faultinject.KindDelay, Prob: 0.25},
		{Site: faultinject.SiteGrant, Kind: faultinject.KindDegrade, Prob: 0.5},
	})
	p, err := pool.New(pool.Options{
		Runtimes:   2,
		HostBudget: 4,
		QueueLimit: 4,
		Runtime: mutls.Options{
			CPUs:      2,
			HeapBytes: w.HeapBytes(size),
		},
	})
	if err != nil {
		return fmt.Errorf("chaos pool: %w", err)
	}

	tenants := 24
	if cfg.Quick {
		tenants = 8
	}
	stormCtx := faultinject.NewContext(context.Background(), plan)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		shed     int
		degraded int
		firstErr error
	)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(stormCtx, func(lease *pool.Lease) error {
				var sum uint64
				_, err := lease.Runtime().RunCtx(context.Background(), func(t *mutls.Thread) {
					sum = w.Spec(t, size, bench.SpecOptions{Model: w.DefaultModel})
				})
				mu.Lock()
				if lease.Degraded() {
					degraded++
				}
				mu.Unlock()
				if err == nil && sum != seq.Checksum {
					err = fmt.Errorf("checksum %#x != sequential %#x (degraded=%v)", sum, seq.Checksum, lease.Degraded())
				}
				return err
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, pool.ErrOverloaded):
				shed++
			case err != nil && firstErr == nil:
				firstErr = fmt.Errorf("chaos pool tenant: %w", err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	st := p.Stats()
	if st.MaxClaimedCPUs > st.HostBudget {
		return fmt.Errorf("chaos pool: budget invariant broken: max claimed %d > budget %d",
			st.MaxClaimedCPUs, st.HostBudget)
	}
	if st.Acquired != st.Released {
		return fmt.Errorf("chaos pool: %d acquired but %d released", st.Acquired, st.Released)
	}

	// Post-storm: a tenant whose context carries no plan is served a
	// clean, verified run.
	var sum uint64
	if err := p.Do(context.Background(), func(lease *pool.Lease) error {
		_, err := lease.Runtime().RunCtx(context.Background(), func(t *mutls.Thread) {
			sum = w.Spec(t, size, bench.SpecOptions{Model: w.DefaultModel})
		})
		return err
	}); err != nil {
		return fmt.Errorf("chaos pool tenant without a plan: %w", err)
	}
	if sum != seq.Checksum {
		return fmt.Errorf("chaos pool run without a plan: checksum %#x != sequential %#x", sum, seq.Checksum)
	}

	p.Close()
	if leaked, n := goroutineLeak(baseline); leaked {
		return fmt.Errorf("chaos pool: goroutine leak (%d > baseline %d)", n, baseline)
	}
	fmt.Fprintf(out, "POOL STORM. tenants=%d shed=%d degraded=%d injected=%d (%v)\n",
		tenants, shed, degraded, plan.Total(), plan)
	return nil
}

// isContained reports whether a run error is one of the typed containment
// outcomes an injected fault may legitimately surface as.
func isContained(err error) bool {
	var kp *mutls.KernelPanic
	return errors.As(err, &kp) || errors.Is(err, mutls.ErrCancelled)
}

// settledGoroutines samples the goroutine count after a short settle, so
// runtimes torn down just before the baseline don't inflate it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return n
}

// goroutineLeak waits (bounded) for the goroutine count to return to the
// baseline; workers unwind asynchronously after Close, so one sample would
// race the teardown.
func goroutineLeak(baseline int) (bool, int) {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n > baseline, n
}
