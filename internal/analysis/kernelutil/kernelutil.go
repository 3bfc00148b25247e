// Package kernelutil locates speculative kernel closures — the function
// literals whose bodies run as speculative regions under the mutls
// drivers — and answers the contract questions the analyzers share:
// which closures are kernels, which variables they capture, and which
// functions poll a check point.
package kernelutil

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// driverFuncs maps the mutls driver functions that take kernel closures
// as arguments. Every func-literal argument whose first parameter is a
// *Thread is a kernel body for these callees.
var driverFuncs = map[string]bool{
	"For":           true,
	"ForRange":      true,
	"Reduce":        true,
	"ReduceFunc":    true,
	"ReduceFloat64": true,
	"Pipeline":      true,
}

// loopDrivers are the drivers whose regions follow the chunk/token resume
// protocol; pollcheck applies to their kernels (tree-form regions are
// joined whole, so their poll discipline differs).
var loopDrivers = map[string]bool{
	"For":           true,
	"ForRange":      true,
	"Reduce":        true,
	"ReduceFunc":    true,
	"ReduceFloat64": true,
	"Pipeline":      true,
}

// A Kernel is one speculative kernel closure.
type Kernel struct {
	// Lit is the closure literal whose body is the speculative region.
	Lit *ast.FuncLit
	// Driver names how the closure reaches speculation: "For",
	// "Pipeline", "Tree.Body", or "indirect" for a local closure called
	// from another kernel (the recursion pattern of the tree kernels).
	Driver string
	// LoopDriver reports a chunk/token-protocol driver (For/ForRange/
	// Reduce*/Pipeline), directly or via an indirect parent.
	LoopDriver bool
	// DriverPolls is true when the driving call is a ForRange that
	// configures driver-side polling (ForOptions.PollEvery > 0), which
	// sub-steps the kernel and polls between invocations. For speculates
	// one index per fork, so its driver never reaches a poll.
	DriverPolls bool
}

// IsThreadPtr reports whether t is *T for a named type called Thread
// (matching both core.Thread and the mutls alias).
func IsThreadPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Thread"
}

// isThreadFunc reports whether sig's first parameter is a *Thread.
func isThreadFunc(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && IsThreadPtr(sig.Params().At(0).Type())
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (nil for calls through function values, conversions and builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// Find returns every kernel closure in the pass's files: closure
// arguments of the driver functions, Tree.Body closures (assignments and
// composite literals), and — transitively — local closures those kernels
// call (the tree kernels' recursion helpers).
func Find(pass *analysis.Pass) []Kernel {
	info := pass.TypesInfo
	var kernels []Kernel
	seen := make(map[*ast.FuncLit]bool)
	add := func(k Kernel) {
		if k.Lit != nil && !seen[k.Lit] {
			seen[k.Lit] = true
			kernels = append(kernels, k)
		}
	}

	// closureOf maps local function-typed variables to the literal they
	// are bound to (v := func(){}, v = func(){}, var v = func(){}) so
	// indirect kernels can be followed; pollVars records option variables
	// initialized from a composite literal that sets PollEvery.
	closureOf := make(map[types.Object]*ast.FuncLit)
	pollVars := make(map[types.Object]bool)
	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
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
	for _, file := range pass.Files {
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

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil || !driverFuncs[fn.Name()] || !isThreadFunc(fn.Type().(*types.Signature)) {
					return true
				}
				polls := fn.Name() == "ForRange" && callSetsPollEvery(info, n, pollVars)
				for _, arg := range n.Args {
					lit, ok := ast.Unparen(arg).(*ast.FuncLit)
					if !ok {
						continue
					}
					sig, _ := info.Types[lit].Type.(*types.Signature)
					if !isThreadFunc(sig) {
						continue
					}
					add(Kernel{Lit: lit, Driver: fn.Name(), LoopDriver: loopDrivers[fn.Name()], DriverPolls: polls})
				}
			case *ast.AssignStmt:
				// tree.Body = func(...){...}
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Body" || !isTreeExpr(info, sel.X) {
						continue
					}
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						add(Kernel{Lit: lit, Driver: "Tree.Body"})
					}
				}
			case *ast.CompositeLit:
				// mutls.Tree{Body: func(...){...}}
				named, ok := info.Types[n].Type.(*types.Named)
				if !ok || named.Obj().Name() != "Tree" {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Body" {
						if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
							add(Kernel{Lit: lit, Driver: "Tree.Body"})
						}
					}
				}
			}
			return true
		})
	}

	// Follow calls from kernels to local closures (fixpoint: recursion
	// helpers may call further helpers).
	for changed := true; changed; {
		changed = false
		for _, k := range kernels {
			parent := k
			ast.Inspect(parent.Lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				lit, ok := closureOf[obj]
				if !ok || seen[lit] {
					return true
				}
				add(Kernel{Lit: lit, Driver: "indirect", LoopDriver: parent.LoopDriver, DriverPolls: parent.DriverPolls})
				changed = true
				return true
			})
		}
	}
	return kernels
}

// isTreeExpr reports whether e's type is (a pointer to) a named type
// called Tree.
func isTreeExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Tree"
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
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && pollVars[obj] {
				return true
			}
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

// CapturedVar reports whether id (resolved in the pass's type info) is a
// variable captured by lit: a non-field variable declared outside the
// literal's source extent (including package-level variables, which are
// equally shared). Constants and functions are never "captured".
func CapturedVar(info *types.Info, lit *ast.FuncLit, id *ast.Ident) *types.Var {
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return nil
	}
	if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
		return nil // declared inside the closure (params included)
	}
	return obj
}

// PollingFuncs returns the package-level functions and methods of the
// pass whose bodies (transitively through same-package calls, bounded
// depth) call CheckPoint or CancelPoint on a Thread.
func PollingFuncs(pass *analysis.Pass) map[*types.Func]bool {
	info := pass.TypesInfo
	bodies := make(map[*types.Func]*ast.BlockStmt)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd.Body
			}
		}
	}
	polls := make(map[*types.Func]bool)
	var check func(fn *types.Func, depth int) bool
	check = func(fn *types.Func, depth int) bool {
		if v, ok := polls[fn]; ok {
			return v
		}
		if depth > 3 {
			return false
		}
		body, ok := bodies[fn]
		if !ok {
			return IsPollCallName(fn.Name())
		}
		polls[fn] = false // cut recursion
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			if IsPollCall(info, call) || check(callee, depth+1) {
				found = true
			}
			return true
		})
		polls[fn] = found
		return found
	}
	for fn := range bodies {
		check(fn, 0)
	}
	return polls
}

// IsPollCallName reports whether name is one of the poll entry points.
func IsPollCallName(name string) bool {
	return name == "CheckPoint" || name == "CancelPoint"
}

// IsPollCall reports whether call invokes Thread.CheckPoint or
// Thread.CancelPoint.
func IsPollCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !IsPollCallName(fn.Name()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsThreadPtr(sig.Recv().Type())
}

// CalleeFunc exposes callee resolution to the analyzers.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return calleeFunc(info, call)
}
