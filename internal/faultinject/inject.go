// Package faultinject is the fault-injection plane of the chaos harness: a
// seeded Plan, carried by a run's context (NewContext), decides at the
// runtime's poll, fork, join, store, commit and alloc seams and at the
// pool's acquire, queue and grant seams when to inject a kernel panic, a
// forced rollback, a GlobalBuffer overflow, a scheduling delay, a run
// cancellation, a lease-acquire failure or a degraded grant. The plan
// exists to prove the containment contract: every injected storm must
// leave checksums equal to the sequential execution and the process free
// of leaked goroutines.
//
// The seed fixes each site's decision stream: the n-th decision drawn at a
// site is a pure function of (seed, site, n). How many decisions a run
// draws, and which execution draws each one, follow the schedule — which
// thread claims a free CPU, how far a speculation gets before it is
// squashed — so two runs under one seed may inject different counts at
// different places. A seed replays the plan, not the run.
package faultinject

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Kind is one injectable fault.
type Kind uint8

const (
	// KindNone is the no-injection decision.
	KindNone Kind = iota
	// KindPanic raises an InjectedPanic at the seam: contained as a
	// RollbackFault on a speculative thread, surfaced as a KernelPanic on
	// the non-speculative thread.
	KindPanic
	// KindRollback forces a speculative rollback (RollbackInjected).
	KindRollback
	// KindOverflow simulates GlobalBuffer exhaustion (a Full store status
	// or an immediate RollbackOverflow, depending on the seam).
	KindOverflow
	// KindDelay sleeps for Delay, perturbing the schedule.
	KindDelay
	// KindCancel cancels the in-flight run (CancelRun).
	KindCancel
	// KindLeaseFail makes a pool Acquire fail with ErrOverloaded.
	KindLeaseFail
	// KindDegrade forces a zero-CPU grant at the pool's budget seam: the
	// lease runs sequentially, as if the host budget were exhausted.
	KindDegrade

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindRollback:
		return "rollback"
	case KindOverflow:
		return "overflow"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	case KindLeaseFail:
		return "leasefail"
	case KindDegrade:
		return "degrade"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Site is one injection seam in the runtime.
type Site uint8

const (
	// SitePoll is the CheckPoint/CancelPoint polling seam.
	SitePoll Site = iota
	// SiteFork is the Fork entry seam.
	SiteFork
	// SiteJoin is the Join entry seam (non-speculative thread).
	SiteJoin
	// SiteStore is the speculative thread's buffered store seam: every
	// word or range store that goes to its GlobalBuffer.
	SiteStore
	// SiteCommit is the validate/commit seam inside the join protocol.
	SiteCommit
	// SiteAlloc is the heap-allocation seam (non-speculative thread).
	SiteAlloc
	// SiteAcquire is the pool lease-acquire seam.
	SiteAcquire
	// SiteQueue is the pool's queue-admission seam: an Acquire that missed
	// the fast path decides here whether it queues, sheds or stalls.
	SiteQueue
	// SiteGrant is the pool's budget-grant seam inside the lease handshake.
	SiteGrant

	numSites
)

// String names the site.
func (s Site) String() string {
	switch s {
	case SitePoll:
		return "poll"
	case SiteFork:
		return "fork"
	case SiteJoin:
		return "join"
	case SiteStore:
		return "store"
	case SiteCommit:
		return "commit"
	case SiteAlloc:
		return "alloc"
	case SiteAcquire:
		return "acquire"
	case SiteQueue:
		return "queue"
	case SiteGrant:
		return "grant"
	}
	return fmt.Sprintf("Site(%d)", uint8(s))
}

// Delay is the sleep of a KindDelay injection: long enough to shuffle
// goroutine schedules, short enough that delay-heavy storms stay fast.
const Delay = 50 * time.Microsecond

// Rule arms one (site, kind) pair with a per-decision probability. The
// probabilities of one site's rules stack: with rules {panic 0.01,
// rollback 0.05} a decision draws one uniform variate and injects a panic
// below 0.01, a rollback below 0.06, nothing otherwise.
type Rule struct {
	Site Site
	Kind Kind
	Prob float64
}

// InjectedPanic is the value a KindPanic injection panics with. The
// containment machinery treats it like any other unknown panic; tests and
// the chaos harness recognize it to tell injected faults from real bugs.
type InjectedPanic struct {
	Site Site
	Seq  uint64 // the site's decision index that raised it
}

// Error implements error so the value reads well inside KernelPanic.
func (e *InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %v seam (decision %d)", e.Site, e.Seq)
}

// Plan is one injection mix. The zero value is unusable; build with
// NewPlan. A nil *Plan is a valid "no injection" plan for every method.
type Plan struct {
	seed  uint64
	rules [numSites][]Rule
	seq   [numSites]atomic.Uint64
	hits  [numSites][numKinds]atomic.Int64
}

// NewPlan builds a plan from the seed and rules. Rules with
// non-positive probability are dropped; probabilities above 1 saturate.
func NewPlan(seed uint64, rules []Rule) *Plan {
	p := &Plan{seed: seed}
	for _, r := range rules {
		if r.Prob <= 0 || r.Site >= numSites || r.Kind == KindNone || r.Kind >= numKinds {
			continue
		}
		if r.Prob > 1 {
			r.Prob = 1
		}
		p.rules[r.Site] = append(p.rules[r.Site], r)
	}
	return p
}

type contextKey struct{}

// NewContext returns a copy of ctx that carries plan: a run or an Acquire
// under it injects at its seams. A context without a plan injects nothing.
func NewContext(ctx context.Context, plan *Plan) context.Context {
	return context.WithValue(ctx, contextKey{}, plan)
}

// From returns the plan ctx carries, nil for none.
func From(ctx context.Context) *Plan {
	p, _ := ctx.Value(contextKey{}).(*Plan)
	return p
}

// Decide draws the next decision for a site. It is safe for concurrent
// use and O(rules) with no allocation; a nil plan always returns KindNone
// without consuming a decision index.
func (p *Plan) Decide(site Site) Kind {
	if p == nil || site >= numSites {
		return KindNone
	}
	rules := p.rules[site]
	if len(rules) == 0 {
		return KindNone
	}
	n := p.seq[site].Add(1)
	x := mix64(p.seed ^ (uint64(site)+1)*0x9E3779B97F4A7C15 ^ n*0xBF58476D1CE4E5B9)
	f := float64(x>>11) / (1 << 53)
	for _, r := range rules {
		if f < r.Prob {
			p.hits[site][r.Kind].Add(1)
			return r.Kind
		}
		f -= r.Prob
	}
	return KindNone
}

// Seq returns the site's decision index (how many decisions were drawn).
func (p *Plan) Seq(site Site) uint64 {
	if p == nil || site >= numSites {
		return 0
	}
	return p.seq[site].Load()
}

// Injected returns how many times the (site, kind) pair fired.
func (p *Plan) Injected(site Site, kind Kind) int64 {
	if p == nil || site >= numSites || kind >= numKinds {
		return 0
	}
	return p.hits[site][kind].Load()
}

// Total returns the total number of injections across all sites and kinds.
func (p *Plan) Total() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for s := range p.hits {
		for k := range p.hits[s] {
			n += p.hits[s][k].Load()
		}
	}
	return n
}

// String renders the non-zero injection counts, e.g.
// "poll/panic:3 commit/rollback:1" ("clean" when nothing fired).
func (p *Plan) String() string {
	if p == nil {
		return "clean"
	}
	var b strings.Builder
	for s := Site(0); s < numSites; s++ {
		for k := Kind(0); k < numKinds; k++ {
			if n := p.hits[s][k].Load(); n > 0 {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%v/%v:%d", s, k, n)
			}
		}
	}
	if b.Len() == 0 {
		return "clean"
	}
	return b.String()
}

// mix64 is the splitmix64 finalizer (the repo's standard bit mixer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
