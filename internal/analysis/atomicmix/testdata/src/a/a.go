// Package a is atomicmix golden testdata: mixed atomic/plain field
// access, gate-lock broadcast discipline and wake publish ordering.
package a

import (
	"sync"
	"sync/atomic"
)

type counters struct {
	hits int64
	miss int64
	seq  int64
}

func mixed(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1)
	return c.hits // want "ATOM001"
}

func disciplined(c *counters) int64 {
	atomic.AddInt64(&c.miss, 1)
	return atomic.LoadInt64(&c.miss)
}

func suppressedMix(c *counters) int64 {
	atomic.AddInt64(&c.seq, 1)
	return c.seq //lint:allow ATOM001 sequential phase: every worker joined above
}

type gate struct {
	mu   sync.Mutex
	cond sync.Cond
}

func (g *gate) bareBroadcast() {
	g.cond.Broadcast() // want "ATOM002"
}

func (g *gate) wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gate) wakeDeferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cond.Broadcast()
}

func wakeNoPublish(g *gate) {
	g.wake() // want "ATOM003"
}

func wakePublished(g *gate, flag *atomic.Bool) {
	flag.Store(true)
	g.wake()
}

func wakePublishedLegacy(g *gate, word *uint64) {
	atomic.StoreUint64(word, 1)
	g.wake()
}

func suppressedWake(g *gate) {
	g.wake() //lint:allow ATOM003 init-time wake, no waiter exists yet
}

// countedGate is the hand-off gate's shape: wake skips lock+broadcast
// while no waiter is registered in parked.
type countedGate struct {
	mu     sync.Mutex
	cond   sync.Cond
	parked atomic.Int32
	parks  atomic.Int64
}

func (g *countedGate) wake() {
	if g.parked.Load() == 0 {
		return
	}
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *countedGate) wait(pred func() bool) {
	g.mu.Lock()
	g.parked.Add(1)
	for !pred() {
		g.cond.Wait()
	}
	g.parked.Add(-1)
	g.mu.Unlock()
}

func (g *countedGate) waitUnregistered(pred func() bool) {
	g.mu.Lock()
	for !pred() {
		g.cond.Wait() // want "ATOM002"
	}
	g.mu.Unlock()
}

func (g *countedGate) waitWrongCounter(pred func() bool) {
	g.mu.Lock()
	g.parks.Add(1)
	for !pred() {
		g.cond.Wait() // want "ATOM002"
	}
	g.mu.Unlock()
}

func (g *countedGate) waitRegisteredOutsideLock(pred func() bool) {
	g.parked.Add(1)
	g.mu.Lock()
	for !pred() {
		g.cond.Wait() // want "ATOM002"
	}
	g.mu.Unlock()
	g.parked.Add(-1)
}

// The uncounted gate above always broadcasts: its waiters need no count.
func (g *gate) wait(pred func() bool) {
	g.mu.Lock()
	for !pred() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// slot is the worker mailbox: plain payload, atomic ready flag, gate.
type slot struct {
	payload int
	ready   atomic.Bool
	gate    countedGate
}

func (s *slot) publish(v int) {
	s.payload = v
	s.ready.Store(true)
	s.gate.wake()
}

func (s *slot) publishPlainOnly(v int) {
	s.payload = v
	s.gate.wake() // want "ATOM003"
}

func (s *slot) wakeBeforePublish(v int) {
	s.payload = v
	s.gate.wake() // want "ATOM003"
	s.ready.Store(true)
}
