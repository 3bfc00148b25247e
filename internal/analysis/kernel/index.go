// Package kernel holds the analyzers of the speculative-kernel contract
// and the kernel index they share.
//
// A kernel is a closure whose body runs as a speculative region under a
// mutls driver. Find lists a package's kernels once (the driver hands the
// list to every analyzer through Pass.Kernels), and two analyzers ask
// their questions of each kernel body:
//
//	speccheck  SPEC001-003, EFFECT001-004: everything the body does must
//	           live in the speculation buffer (spec.go)
//	pollcheck  POLL001: every loop must reach a check point (poll.go)
package kernel

import (
	"go/ast"
	"go/types"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// drivers are the mutls functions that take kernel closures as
// arguments. All of them follow the chunk/token resume protocol, so
// POLL001 applies to their kernels; tree-form regions (Tree.Body) are
// joined whole and their poll discipline differs.
var drivers = map[string]bool{
	"For":           true,
	"ForRange":      true,
	"Reduce":        true,
	"ReduceFunc":    true,
	"ReduceFloat64": true,
	"Pipeline":      true,
}

// finds counts Find calls, so a test can hold the driver to one
// discovery per package.
var finds atomic.Int64

// namedAs reports whether t, behind at most one pointer, is a named type
// called name. Matching by name covers both internal/core's types and
// their mutls aliases.
func namedAs(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == name
}

// isThreadPtr reports whether t is a *Thread.
func isThreadPtr(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok && namedAs(t, "Thread")
}

// isThreadFunc reports whether sig's first parameter is a *Thread.
func isThreadFunc(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && isThreadPtr(sig.Params().At(0).Type())
}

// Find returns every kernel closure in files: closure operands of the
// driver functions, elements of []Stage literals (stage lists built
// apart from the Pipeline call), Tree.Body closures (assignments and
// composite literals), and — transitively — local closures those kernels
// call (the tree kernels' recursion helpers). An operand is a literal or
// a local variable bound to one. A closure declared inside a kernel runs
// as part of that kernel and is not listed again.
func Find(info *types.Info, files []*ast.File) []analysis.Kernel {
	finds.Add(1)

	// closureOf maps local function-typed variables to the literal they
	// are bound to (v := func(){}, v = func(){}, var v = func(){});
	// pollVars records option variables initialized from a composite
	// literal that sets PollEvery.
	closureOf := make(map[types.Object]*ast.FuncLit)
	pollVars := make(map[types.Object]bool)
	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			closureOf[obj] = lit
		}
		if compositeSetsPollEvery(ast.Unparen(rhs)) {
			pollVars[obj] = true
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						bind(id, rhs)
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range st.Values {
					if i < len(st.Names) {
						bind(st.Names[i], rhs)
					}
				}
			}
			return true
		})
	}

	var kernels []analysis.Kernel
	seen := make(map[*ast.FuncLit]bool)
	add := func(lit *ast.FuncLit, needsPoll bool) {
		if lit != nil && !seen[lit] {
			seen[lit] = true
			kernels = append(kernels, analysis.Kernel{Lit: lit, NeedsPoll: needsPoll})
		}
	}
	// operand adds the closure a driver operand denotes, when its first
	// parameter is a *Thread: the literal itself, or the one a local
	// variable is bound to.
	operand := func(e ast.Expr, needsPoll bool) {
		var lit *ast.FuncLit
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			lit = e
		case *ast.Ident:
			lit = closureOf[info.Uses[e]]
		}
		if lit != nil {
			if sig, _ := info.TypeOf(lit).(*types.Signature); isThreadFunc(sig) {
				add(lit, needsPoll)
			}
		}
	}

	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := effects.CalleeFunc(info, n)
				if fn == nil || !drivers[fn.Name()] || !isThreadFunc(fn.Type().(*types.Signature)) {
					return true
				}
				// A ForRange that configures ForOptions.PollEvery
				// sub-steps the kernel and polls between invocations.
				// For speculates one index per fork, so its driver never
				// reaches a poll.
				polls := fn.Name() == "ForRange" && callSetsPollEvery(info, n, pollVars)
				for _, arg := range n.Args {
					operand(arg, !polls)
				}
			case *ast.AssignStmt:
				// tree.Body = func(...){...}
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if ok && i < len(n.Rhs) && sel.Sel.Name == "Body" && namedAs(info.TypeOf(sel.X), "Tree") {
						operand(n.Rhs[i], false)
					}
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if t == nil {
					return true
				}
				switch u := t.Underlying().(type) {
				case *types.Struct:
					// mutls.Tree{Body: func(...){...}}
					if !namedAs(t, "Tree") {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Body" {
								operand(kv.Value, false)
							}
						}
					}
				case *types.Slice:
					// []mutls.Stage{stage0, stage1}: Pipeline stages.
					if !namedAs(u.Elem(), "Stage") {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							elt = kv.Value
						}
						operand(elt, true)
					}
				}
			}
			return true
		})
	}

	// Follow calls from kernels to local closures declared outside them;
	// kernels grows while it is ranged over, so a helper's own helpers
	// are followed too.
	for i := 0; i < len(kernels); i++ {
		k := kernels[i]
		ast.Inspect(k.Lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return !seen[n] // a listed kernel nested here follows its own calls
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					lit := closureOf[info.Uses[id]]
					if lit != nil && (lit.Pos() < k.Lit.Pos() || lit.End() > k.Lit.End()) {
						add(lit, k.NeedsPoll)
					}
				}
			}
			return true
		})
	}
	return kernels
}

// inspect walks a kernel's body the way every check must: into the
// closures declared inside it — they run inside the region — but not into
// a nested closure that is a listed kernel itself, which is walked on its
// own (walking it here too would report its findings twice).
func inspect(pass *analysis.Pass, k analysis.Kernel, visit func(ast.Node) bool) {
	ast.Inspect(k.Lit.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			for _, other := range pass.Kernels {
				if other.Lit == lit {
					return false
				}
			}
		}
		return visit(n)
	})
}

// callSetsPollEvery reports whether a driver call's options argument sets
// PollEvery to a non-zero value — a ForOptions{PollEvery: n} literal in
// the call, or a local variable initialized from such a literal
// (pollVars, collected in the binding pre-pass).
func callSetsPollEvery(info *types.Info, call *ast.CallExpr, pollVars map[types.Object]bool) bool {
	for _, arg := range call.Args {
		if compositeSetsPollEvery(ast.Unparen(arg)) {
			return true
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pollVars[info.Uses[id]] {
			return true
		}
	}
	return false
}

// compositeSetsPollEvery reports whether e is a composite literal with a
// PollEvery field set to something other than the literal 0.
func compositeSetsPollEvery(e ast.Expr) bool {
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "PollEvery" {
			continue
		}
		if lit, ok := ast.Unparen(kv.Value).(*ast.BasicLit); ok && lit.Value == "0" {
			return false
		}
		return true
	}
	return false
}
