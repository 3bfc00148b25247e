package core

import (
	"time"

	"repro/internal/faultinject"
)

// injectAt is the runtime's fault-injection seam: the poll, fork, join,
// buffered-store and alloc sites call it (the commit seam has its own
// switch, because it runs outside runRegion's recover). It draws a decision
// from the plan the run's context carries and acts the fault out through
// the runtime's real failure paths: a panic unwinds like any kernel/region
// panic (containment under test), forced rollbacks and overflows take
// rollbackNow, a cancel goes through CancelRun, a delay just sleeps. On the
// non-speculative thread the rollback-shaped kinds degrade to no-ops —
// there is nothing to roll back — so a single plan can drive both sides. A
// run without a plan pays one pointer check, inlined at the site.
func (t *Thread) injectAt(site faultinject.Site) {
	if plan := t.rt.plan; plan != nil {
		t.inject(plan, site)
	}
}

// inject draws and acts out one decision at site; see injectAt.
func (t *Thread) inject(plan *faultinject.Plan, site faultinject.Site) {
	switch plan.Decide(site) {
	case faultinject.KindPanic:
		panic(&faultinject.InjectedPanic{Site: site, Seq: plan.Seq(site)})
	case faultinject.KindRollback:
		if t.speculative {
			t.rollbackNow(RollbackInjected)
		}
	case faultinject.KindOverflow:
		if t.speculative {
			t.rollbackNow(RollbackOverflow)
		}
	case faultinject.KindDelay:
		time.Sleep(faultinject.Delay)
	case faultinject.KindCancel:
		t.rt.CancelRun()
	}
}
