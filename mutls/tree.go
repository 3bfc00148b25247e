package mutls

import (
	"math"
	"sort"
)

// This file implements tree-form recursion speculation (the fft / matmult /
// nqueen / tsp shape): speculative regions fork subtrees and stop with
// SyncParent at their first join point, leaving the forked subtree
// descriptors in their saved locals (Figure 2(d)); the non-speculative
// driver joins the tree in sequential order, adopting each committed
// region's spawns and re-executing rolled-back subtrees inline.

// Task describes one subtree of a tree-form computation: its position in
// sequential execution order (Seq, with Span the width of its sequential
// interval, inside which the Seq keys of its own sub-tasks must nest) and
// up to four application parameters that let both the speculative region
// and the driver execute the subtree.
type Task struct {
	// Rank is the speculating CPU, filled in by TreeThread.Spawn. Rank 0
	// marks a driver-side bookkeeping entry (see TreeThread.Defer) with
	// nothing to join.
	Rank Rank
	// Seq keys the subtree's position in sequential execution order; Span
	// is the width of its interval. Sub-task keys must nest: a child's
	// [Seq, Seq+Span) lies within its parent's interval.
	Seq  int64
	Span int64
	// Args are the application parameters of the subtree.
	Args [4]int64
}

// Task regvar layout. Live-ins at fork: Args in slots 0..3, Seq and Span in
// 4..5. Saved locals at the stop: the subtree result in slot 0, the task
// count in slot 1, then taskSlots per task.
const (
	taskArgSlots   = 4
	taskSeqSlot    = 4
	taskSpanSlot   = 5
	treeResultSlot = 0
	treeCountSlot  = 1
	treeTaskBase   = 2
	taskSlots      = 7 // rank, seq, span, args[4]
)

// Tree drives tree-form speculation under a forking model — normally
// Mixed, the model the paper introduces for exactly this shape (§II).
type Tree struct {
	// Model is the forking model of every Spawn.
	Model Model
	// Body executes the subtree described by task on c, speculating
	// sub-subtrees through tt.Spawn and recording the subtree's merged
	// result (if any) with tt.SetResult*. It runs speculatively when the
	// task was spawned, and on the non-speculative thread when the driver
	// re-executes a rolled-back subtree — it must be deterministic in
	// (task, simulated memory).
	Body func(c *Thread, tt *TreeThread, task Task)

	// point is Body's fork/join point, interned by Collect.
	point int
}

// TreeThread collects the tasks one region (or one driver-side execution)
// spawns, plus its result. Spawn order is the protocol's ordering
// discipline: speculate logically later subtrees first (new speculations by
// the same thread are logically earlier than its previous ones), then run
// the logically earliest part inline.
type TreeThread struct {
	tree   *Tree
	tasks  []Task
	result uint64
}

// capacity returns how many tasks a speculative region can carry in its
// saved locals. Driver-side collectors (the non-speculative thread) never
// save their task list, so they are unbounded.
func (tt *TreeThread) capacity(c *Thread) int {
	return (c.Runtime().Options().LBuf.RegSlots - treeTaskBase) / taskSlots
}

// Spawn tries to fork a speculative thread executing task's subtree. On
// success it records the task (with the child's rank) for the joining
// driver and returns true; on failure — no idle CPU, the model forbids
// this thread from forking, or the region's saved locals cannot carry
// another task descriptor — the caller must execute the subtree inline.
func (tt *TreeThread) Spawn(c *Thread, task Task) bool {
	if c.Speculative() && len(tt.tasks) >= tt.capacity(c) {
		return false
	}
	p := tt.tree.point
	ranks := make([]Rank, p+1)
	h := c.Fork(ranks, p, tt.tree.Model)
	if h == nil {
		return false
	}
	for i, a := range task.Args {
		h.SetRegvarInt64(i, a)
	}
	h.SetRegvarInt64(taskSeqSlot, task.Seq)
	h.SetRegvarInt64(taskSpanSlot, task.Span)
	h.Start(tt.tree.region())
	task.Rank = ranks[p]
	tt.tasks = append(tt.tasks, task)
	return true
}

// Defer records a task with Rank 0 — a driver-side bookkeeping entry (such
// as a combine deferred until earlier speculations join) that is carried
// through the saved locals without speculating anything. Unlike Spawn it
// cannot refuse (dropping the entry would corrupt the driver's completion
// order), so a speculative region exceeding its saved-locals capacity is a
// static protocol violation: raise Options.RegSlots.
func (tt *TreeThread) Defer(c *Thread, task Task) {
	if c.Speculative() && len(tt.tasks) >= tt.capacity(c) {
		panic("mutls: Tree region task list exceeds the LocalBuffer capacity; raise Options.RegSlots")
	}
	task.Rank = 0
	tt.tasks = append(tt.tasks, task)
}

// Pending returns how many tasks this thread has recorded so far, letting a
// Body detect whether a recursive call deferred work.
func (tt *TreeThread) Pending() int { return len(tt.tasks) }

// SetResultInt64 records the subtree's int64 result, carried to the driver
// in the saved locals.
func (tt *TreeThread) SetResultInt64(v int64) { tt.result = uint64(v) }

// SetResultFloat64 records the subtree's float64 result.
func (tt *TreeThread) SetResultFloat64(v float64) { tt.result = f64bits(v) }

// TreeResult is a completed subtree's result, decoded from the committed
// region's saved locals or taken from an inline re-execution.
type TreeResult struct{ bits uint64 }

// Int64 returns the result recorded with SetResultInt64.
func (r TreeResult) Int64() int64 { return int64(r.bits) }

// Float64 returns the result recorded with SetResultFloat64.
func (r TreeResult) Float64() float64 { return f64from(r.bits) }

// region builds the speculative continuation executing one task: decode the
// live-ins, run Body with a fresh task collector, save the result and the
// spawned tasks, and — when subtrees were spawned — hand the continuation
// to the parent chain at the region's first join point (synchronization
// counter 1, Figure 2(d)).
func (tr *Tree) region() RegionFunc {
	return func(c *Thread) uint32 {
		var task Task
		for i := range task.Args {
			task.Args[i] = c.GetRegvarInt64(i)
		}
		task.Seq = c.GetRegvarInt64(taskSeqSlot)
		task.Span = c.GetRegvarInt64(taskSpanSlot)
		tt := &TreeThread{tree: tr}
		tr.Body(c, tt, task)
		c.SaveRegvarInt64(treeResultSlot, int64(tt.result))
		saveTasks(c, tt.tasks)
		if len(tt.tasks) == 0 {
			return 0
		}
		c.SyncParent(1)
		return 0 // not reached speculatively
	}
}

// saveTasks stores a region's task list in its saved locals before the
// SyncParent stop.
func saveTasks(c *Thread, tasks []Task) {
	c.SaveRegvarInt64(treeCountSlot, int64(len(tasks)))
	for i, task := range tasks {
		base := treeTaskBase + taskSlots*i
		c.SaveRegvarInt64(base, int64(task.Rank))
		c.SaveRegvarInt64(base+1, task.Seq)
		c.SaveRegvarInt64(base+2, task.Span)
		for j, a := range task.Args {
			c.SaveRegvarInt64(base+3+j, a)
		}
	}
}

// Collect runs fn on the non-speculative thread with a fresh task collector
// and returns the tasks it spawned or deferred, sorted in sequential (Seq)
// order. It is the driver-side entry point: the root of the computation
// runs inside fn, speculating subtrees through the collector, and the
// returned tasks are then completed with Drive (or Join for custom
// completion orders). It interns Body as the tree's fork/join point, as
// the other drivers intern theirs, so the tree's spawns and joins never
// share a point with another driver's body; Spawn, Join and Exec belong
// after it.
func (tr *Tree) Collect(t *Thread, fn func(tt *TreeThread)) []Task {
	if t.Speculative() {
		panic("mutls: Tree.Collect on a speculative thread — collectors belong to the driver")
	}
	if p := t.Runtime().PointFor(bodyKey(tr.Body)); p != tr.point {
		tr.point = p // written only when it moves: earlier spawns may still read it
	}
	tt := &TreeThread{tree: tr}
	fn(tt)
	sortTasks(tt.tasks)
	return tt.tasks
}

// Exec re-executes a task's subtree inline on the joining thread via Body,
// returning any fresh speculations it made (Seq-sorted) and its result.
func (tr *Tree) Exec(t *Thread, task Task) ([]Task, TreeResult) {
	tt := &TreeThread{tree: tr}
	tr.Body(t, tt, task)
	sortTasks(tt.tasks)
	return tt.tasks, TreeResult{bits: tt.result}
}

// Join synchronizes with one spawned task. On commit it returns the task's
// own sub-tasks (decoded from the saved locals, Seq-sorted), its result and
// true; on rollback it returns false and the caller must re-execute the
// subtree (normally with Exec). Joins must follow sequential order: among
// all outstanding tasks, the smallest Seq joins first. A cancelled run
// (RunCtx) unwinds here, before the join.
func (tr *Tree) Join(t *Thread, task Task) ([]Task, TreeResult, bool) {
	t.CancelPoint()
	ranks := make([]Rank, tr.point+1)
	ranks[tr.point] = task.Rank
	res := t.Join(ranks, tr.point)
	if !res.Committed() {
		return nil, TreeResult{}, false
	}
	n := int(res.RegvarInt64(treeCountSlot))
	sub := make([]Task, n)
	for i := range sub {
		base := treeTaskBase + taskSlots*i
		sub[i].Rank = Rank(res.RegvarInt64(base))
		sub[i].Seq = res.RegvarInt64(base + 1)
		sub[i].Span = res.RegvarInt64(base + 2)
		for j := range sub[i].Args {
			sub[i].Args[j] = res.RegvarInt64(base + 3 + j)
		}
	}
	sortTasks(sub)
	return sub, TreeResult{bits: uint64(res.RegvarInt64(treeResultSlot))}, true
}

// Drive completes the speculated tree in sequential order. For every task
// it joins the child; on commit the child's own tasks are spliced in and
// onResult (if non-nil) consumes the committed result; on rollback the
// subtree re-executes inline via Body — possibly speculating afresh — and
// onResult consumes the re-executed result. Rank-0 bookkeeping tasks are
// skipped; computations that interleave driver work with joins (like fft's
// post-order combines) build their own completion loop from Join and Exec
// instead.
func (tr *Tree) Drive(t *Thread, roots []Task, onResult func(task Task, res TreeResult)) {
	queue := append([]Task(nil), roots...)
	sortTasks(queue)
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		if task.Rank == 0 {
			continue
		}
		sub, res, committed := tr.Join(t, task)
		if !committed {
			sub, res = tr.Exec(t, task)
		}
		if onResult != nil {
			onResult(task, res)
		}
		if len(sub) > 0 {
			// Fresh and adopted tasks sit above the remaining queue on the
			// children stack: join them first.
			queue = append(sub, queue...)
		}
	}
}

func sortTasks(tasks []Task) {
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Seq < tasks[j].Seq })
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

func f64from(b uint64) float64 { return math.Float64frombits(b) }
