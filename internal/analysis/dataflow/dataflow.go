// Package dataflow is a generic forward worklist solver over
// internal/analysis/cfg graphs. A client describes its lattice (bottom,
// join, equality), a per-block transfer function, and optionally a
// per-edge transfer (used for condition-sensitive facts like "the nil
// check failed on this edge"); Solve iterates to the fixed point and
// returns the in/out fact of every block.
package dataflow

import "repro/internal/analysis/cfg"

// Problem describes one forward dataflow analysis over fact type F.
type Problem[F any] struct {
	// Boundary is the entry block's in fact.
	Boundary F
	// Bottom returns the identity of Join — the initial fact of every
	// other block.
	Bottom func() F
	// Join combines facts at control-flow merges. It must be monotone
	// and may return either argument when they are equal.
	Join func(a, b F) F
	// Equal reports whether two facts are equal (fixed-point test).
	Equal func(a, b F) bool
	// Transfer computes the block's out fact from its in fact.
	Transfer func(b *cfg.Block, in F) F
	// EdgeTransfer, when non-nil, refines the fact flowing along the
	// edge from b to b.Succs[succIdx]. It runs after Transfer.
	EdgeTransfer func(b *cfg.Block, succIdx int, out F) F
}

// Result holds the solved facts, indexed by Block.Index: In[i] is the
// fact on entry to block i, Out[i] on exit.
type Result[F any] struct {
	In, Out []F
}

// Solve runs the worklist algorithm to a fixed point.
func Solve[F any](g *cfg.Graph, p Problem[F]) Result[F] {
	n := len(g.Blocks)
	res := Result[F]{In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		res.In[i] = p.Bottom()
		res.Out[i] = p.Bottom()
	}

	preds := g.Preds()
	inWork := make([]bool, n)
	var work []*cfg.Block
	push := func(b *cfg.Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}

	res.In[0] = p.Boundary
	// Seed in reverse postorder so most facts settle in one pass.
	for _, b := range postorder(g) {
		push(b)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Index] = false

		if b.Index != 0 {
			in := p.Bottom()
			for _, pr := range preds[b.Index] {
				in = p.Join(in, edgeFact(p, pr, b, res.Out[pr.Index]))
			}
			res.In[b.Index] = in
		}
		out := p.Transfer(b, res.In[b.Index])
		if p.Equal(out, res.Out[b.Index]) {
			continue
		}
		res.Out[b.Index] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}

// edgeFact returns the fact flowing from from's out fact into to.
func edgeFact[F any](p Problem[F], from, to *cfg.Block, out F) F {
	if p.EdgeTransfer == nil {
		return out
	}
	// A block can list the same successor more than once (e.g. both
	// arms reaching the same target); join every matching edge.
	var acc F
	first := true
	for i, s := range from.Succs {
		if s != to {
			continue
		}
		f := p.EdgeTransfer(from, i, out)
		if first {
			acc, first = f, false
		} else {
			acc = p.Join(acc, f)
		}
	}
	if first {
		return out
	}
	return acc
}

// postorder returns the blocks reachable from entry in postorder; the
// worklist pops from the back, so pushing this order visits blocks in
// reverse postorder. Unreachable blocks are deliberately excluded: they
// are never processed, so their facts stay at bottom and cannot pollute
// may-analyses through their exit edges (code after return/panic).
func postorder(g *cfg.Graph) []*cfg.Block {
	seen := make([]bool, len(g.Blocks))
	order := make([]*cfg.Block, 0, len(g.Blocks))
	var visit func(b *cfg.Block)
	visit = func(b *cfg.Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(g.Blocks[0])
	return order
}
