package mutls

import (
	"reflect"

	"repro/internal/core"
)

// This file implements loop-level speculation with chained in-order forks,
// a direct translation of the paper's transformed loop code: each chunk's
// region forks the next chunk before doing its own work; the
// non-speculative thread joins the chain in order, restoring the chained
// rank from the saved locals and re-executing rolled-back chunks inline.
//
// The schedule is static: chunk seq's bounds are a pure function of seq, so
// the chained forks and the joining thread compute them independently and
// share no state.

// ChunkPolicy decides how an index space [0, n) is cut into speculated
// chunks. The zero value selects the paper's workload distribution: up to
// 64 chunks, at least one index per chunk.
type ChunkPolicy struct {
	// MaxChunks caps the number of chunks. Zero selects 64, the paper's
	// fixed split (which is why the Figure 3 curves plateau between 32 and
	// 63 CPUs and jump at 64).
	MaxChunks int
	// MinPerChunk is the smallest number of indices worth a fork; chunk
	// counts are reduced until every chunk holds at least this many. Zero
	// selects 1.
	MinPerChunk int
}

// Chunks returns the number of chunks the policy cuts [0, n) into.
func (p ChunkPolicy) Chunks(n int) int {
	maxChunks := p.MaxChunks
	if maxChunks <= 0 {
		maxChunks = 64
	}
	per := p.MinPerChunk
	if per <= 0 {
		per = 1
	}
	chunks := n / per
	if chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// Bounds returns the half-open index range [lo, hi) of chunk idx when
// [0, n) is cut into the given number of contiguous chunks. The remainder
// of n/chunks is spread one index each over the first chunks rather than
// dumped on the last. Out-of-range arguments are clamped to sane empty
// bounds instead of panicking: chunks below 1 is treated as one chunk,
// idx below 0 yields [0, 0), idx at or past chunks yields [n, n), and
// when chunks exceeds n the chunks past index n are empty.
func (p ChunkPolicy) Bounds(n, chunks, idx int) (lo, hi int) {
	if n < 0 {
		n = 0
	}
	if chunks < 1 {
		chunks = 1
	}
	if idx < 0 {
		return 0, 0
	}
	if idx >= chunks {
		return n, n
	}
	per, rem := n/chunks, n%chunks
	lo = idx * per
	hi = lo + per
	// The first rem chunks carry one extra index.
	if idx < rem {
		lo += idx
		hi += idx + 1
	} else {
		lo += rem
		hi += rem
	}
	return lo, hi
}

// ForOptions configures For and ForRange.
type ForOptions struct {
	// Model is the forking model of the chunk forks; the zero value is
	// InOrder, the model the paper uses for loop-level speculation.
	Model Model
	// Policy cuts the index space into chunks (ForRange only; For speculates
	// one index per fork).
	Policy ChunkPolicy
	// PollEvery, when positive, makes speculated chunks poll CheckPoint
	// after every PollEvery indices (the paper inserts MUTLS_check_point
	// inside loops so "the non-speculative thread never waits long").
	// ForRange only: a For chunk is a single index, with nothing to poll
	// between. A thread whose poll reports it must stop — its parent
	// signalled the join, or a hash-conflict park (gbuf.Conflict) obliges it
	// to wait — saves its progress and stops early instead of draining the
	// chunk; the joining thread commits the partial work and runs the
	// remainder inline. A squashed thread's poll rolls it back on the spot.
	// Zero disables polling (chunks always run to completion).
	PollEvery int
}

// pollStopCounter is the synchronization counter a region returns when a
// CheckPoint poll stopped it mid-chunk; the resume index travels in
// regvar slot 4.
const pollStopCounter = 1

// For executes body(c, idx) for idx in [0, nChunks) under loop-level
// speculation, every index its own speculation. body must contain only
// TLS-instrumented work: memory access through c's Load*/Store*, pure
// compute charged with c.Tick. Chunks are speculated with chained forks —
// the transformed shape of the paper's Figure 2 — and rolled-back or
// never-forked chunks are re-executed inline by the joining thread, so the
// loop's sequential semantics are preserved under any forking model and any
// number of CPUs.
func For(t *Thread, nChunks int, opts ForOptions, body func(c *Thread, idx int)) {
	if nChunks <= 0 {
		return
	}
	driveChunks(t, nChunks, opts.Model, 0, bodyKey(body),
		func(seq int) (lo, hi int) { return seq, seq + 1 },
		func(c *Thread, lo, hi int) { body(c, lo) })
}

// ForRange executes body(c, lo, hi) over the contiguous sub-ranges
// opts.Policy cuts [0, n) into, under loop-level speculation. It is the
// range form of For for loops whose natural unit is an index interval
// rather than a chunk number.
func ForRange(t *Thread, n int, opts ForOptions, body func(c *Thread, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := opts.Policy.Chunks(n)
	driveChunks(t, chunks, opts.Model, opts.PollEvery, bodyKey(body),
		func(seq int) (lo, hi int) { return opts.Policy.Bounds(n, chunks, seq) },
		body)
}

// bodyKey identifies a driver's body — a func value — by its code pointer:
// the key of the body's fork point (core's PointFor), so every call of the
// body is profiled and judged on one id and the verdict on a loop outlives
// the call that measured it. Closures made from one literal share the key
// whatever they capture, and so share a point and a verdict.
func bodyKey(body any) uintptr { return reflect.ValueOf(body).Pointer() }

// driveChunks is the loop controller shared by For and ForRange: the
// non-speculative thread runs chunk 0 and joins the chain of chunks
// 1..chunks-1 in order. bounds maps a chunk's sequence number to its index
// range; it is pure, so the chained forks call it without synchronization.
// key is the caller's body (bodyKey), body its chunk-range form.
func driveChunks(t *Thread, chunks int, model Model, poll int, key uintptr, bounds func(seq int) (lo, hi int), body func(c *Thread, lo, hi int)) {
	rt := t.Runtime()
	// The body's own fork/join point: its profile and pay-off estimate never
	// mix with those of a different body's loop nested in this one.
	point := rt.PointFor(key)
	// inline runs a chunk on this thread, timed: what forking it is worth.
	inline := func(lo, hi int) {
		span := t.StartInline(point)
		body(t, lo, hi)
		span.Stop()
	}

	var region RegionFunc
	// fork speculates chunk seq. Its three live-ins are the transformed
	// loop's: each is a saved (and charged) local.
	fork := func(c *Thread, ranks []Rank, seq int) {
		if seq >= chunks {
			return
		}
		if h := c.ForkBody(ranks, point, model); h != nil {
			lo, hi := bounds(seq)
			h.SetRegvarInt64(0, int64(seq))
			h.SetRegvarInt64(1, int64(lo))
			h.SetRegvarInt64(2, int64(hi))
			h.Start(region)
		}
	}
	region = func(c *Thread) uint32 {
		seq := int(c.GetRegvarInt64(0))
		lo := int(c.GetRegvarInt64(1))
		hi := int(c.GetRegvarInt64(2))
		ranks := make([]Rank, point+1)
		fork(c, ranks, seq+1)
		if poll > 0 {
			// Sub-step the chunk, polling between steps: a stop request
			// (parent join signal or conflict park) saves the progress
			// index and stops the region early; the joining thread commits
			// the prefix and completes the remainder inline. A squashed
			// thread's poll never returns — it rolls back on the spot.
			for cur := lo; cur < hi; {
				next := cur + poll
				if next > hi {
					next = hi
				}
				body(c, cur, next)
				cur = next
				if cur < hi && c.CheckPoint() {
					c.SaveRegvarInt64(3, int64(ranks[point]))
					c.SaveRegvarInt64(4, int64(cur))
					return pollStopCounter
				}
			}
		} else {
			body(c, lo, hi)
		}
		// The chained ranks array is live at the join point: save it for
		// the joining thread (paper §IV-D).
		c.SaveRegvarInt64(3, int64(ranks[point]))
		return 0
	}

	mark := t.ChildMark()
	ranks := make([]Rank, point+1)
	fork(t, ranks, 1)
	inline(bounds(0))

	for seq := 1; seq < chunks; seq++ {
		// Cooperative cancellation: a cancelled run (RunCtx deadline) stops
		// driving the chain here; outstanding speculation is squashed by
		// the run's drain.
		t.CancelPoint()
		lo, hi := bounds(seq)
		res := t.Join(ranks, point)
		if res.Committed() {
			ranks[point] = Rank(res.RegvarInt64(3))
			if res.Counter == pollStopCounter {
				// The chunk stopped early at a poll (join signal or
				// conflict park): its prefix just committed; finish the
				// remainder inline before joining further down the chain.
				body(t, int(res.RegvarInt64(4)), hi)
			}
			continue
		}
		// Rolled back or never forked: run the chunk inline, re-forking the
		// rest of the chain where the model allows. A rollback abandons the
		// downstream chain adopted from the rolled-back thread; squash it
		// so its CPUs are reclaimable instead of stranded until the end of
		// the run.
		if res.Status == core.JoinRolledBack {
			t.SquashChildren(mark)
		}
		ranks[point] = 0
		fork(t, ranks, seq+1)
		inline(lo, hi)
	}
}
