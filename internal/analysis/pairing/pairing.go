// Package pairing defines the acquire/release analyzer — leaseleak
// (pool.Acquire/Release) — as one flow-sensitive path check.
//
// For every acquire call bound to a local variable the enclosing
// function must release the resource on every path. Each acquire is
// tracked by a forward may-hold dataflow over the function's CFG
// (internal/analysis/cfg), so release-on-all-paths survives loops, early
// continue, and goto, and a handle that is still held when its own
// acquire executes again (a loop-carried leak) or when the variable is
// reassigned is reported even though a release appears later in the
// text. A defer of the release (directly or inside a deferred closure)
// satisfies all paths at once, panic unwinds included; without one, a
// call that may panic while the handle is held is reported too. Three
// escapes are deliberate: paths where the acquire's error value is
// non-nil or the handle is provably nil (the resource was never granted
// there), ownership transfer (the handle is returned, aliased, sent away,
// or captured by a closure — some other scope releases it), and
// //lint:allow suppressions.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
	"repro/internal/analysis/effects"
)

// Leaseleak: every pool.Acquire must Release its lease on every return
// path. A leaked lease pins one pooled runtime forever; with the pool's
// fixed capacity each leak is a permanent admission-slot loss, and after
// MaxRuntimes of them every Acquire returns ErrOverloaded.
var Leaseleak = newAnalyzer("leaseleak",
	"flag pool.Acquire calls whose leases are not released on every return path",
	spec{
		pairs:       map[string]string{"Acquire": "Release"},
		pkgPath:     "repro/mutls/pool",
		leakCode:    "LEASE001",
		discardCode: "LEASE002",
		noun:        "runtime lease",
	})

// A spec configures one acquire/release pairing.
type spec struct {
	// pairs maps acquire method names to their release method names.
	pairs map[string]string
	// pkgPath restricts matches to methods defined in this package, so an
	// unrelated Acquire/Release vocabulary elsewhere is not caught.
	pkgPath string
	// leakCode is reported when a path returns without releasing;
	// discardCode when the acquire's result is thrown away outright.
	leakCode, discardCode string
	// noun names the resource in diagnostics.
	noun string
}

// newAnalyzer applies sp to every function body of a pass.
func newAnalyzer(name, doc string, sp spec) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:  name,
		Doc:   doc,
		Codes: []string{sp.leakCode, sp.discardCode},
		Run: func(pass *analysis.Pass) error {
			for _, file := range pass.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch fn := n.(type) {
					case *ast.FuncDecl:
						if fn.Body != nil {
							checkBody(pass, sp, fn.Body)
						}
					case *ast.FuncLit:
						checkBody(pass, sp, fn.Body)
					}
					return true
				})
			}
			return nil
		},
	}
}

// acquireFunc resolves call to a matching acquire method and returns its
// release name.
func acquireFunc(info *types.Info, sp spec, call *ast.CallExpr) (release string, ok bool) {
	fn := effects.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != sp.pkgPath {
		return "", false
	}
	release, ok = sp.pairs[fn.Name()]
	return release, ok
}

// checkBody analyzes the acquire calls appearing directly in body
// (nested function literals get their own invocation).
func checkBody(pass *analysis.Pass, sp spec, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var graph *cfg.Graph // built lazily, shared by every acquire in body
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals run their own checkBody
		}
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if _, isAcq := acquireFunc(info, sp, call); isAcq {
					pass.Reportf(call.Pos(), sp.discardCode,
						"result of %s is discarded; the %s can never be released", effects.CallLabel(call), sp.noun)
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			release, isAcq := acquireFunc(info, sp, call)
			if !isAcq {
				return true
			}
			resID, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return true // stored straight into a structure: ownership transferred
			}
			if resID.Name == "_" {
				pass.Reportf(call.Pos(), sp.discardCode,
					"result of %s is discarded; the %s can never be released", effects.CallLabel(call), sp.noun)
				return true
			}
			res := info.ObjectOf(resID)
			if res == nil {
				return true
			}
			var errObj types.Object
			if len(st.Lhs) > 1 {
				if errID, ok := st.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
					errObj = info.ObjectOf(errID)
				}
			}
			if graph == nil {
				graph = cfg.New(body)
			}
			tk := &tracker{
				info:    info,
				acq:     st,
				call:    call,
				release: release,
				res:     res,
				errObj:  errObj,
			}
			tk.check(pass, sp, body, graph)
		}
		return true
	})
}

// held is the dataflow fact: 1 when the tracked handle may hold an
// unreleased resource on some path reaching this point.
const heldBit uint8 = 1

// tracker is the flow analysis of one acquire statement.
type tracker struct {
	info    *types.Info
	acq     *ast.AssignStmt // the acquire assignment (identity-matched in the CFG)
	call    *ast.CallExpr
	release string
	res     types.Object // the handle variable
	errObj  types.Object // the acquire's error variable, if bound
}

// leak kinds, in reporting precedence order.
const (
	leakNone = iota
	leakLoopCarried
	leakReturn
	leakReassign
	leakFallThrough
	leakPanic
)

type leakReport struct {
	kind int
	at   ast.Node // the reacquire, return, reassignment or risky call
}

func (tk *tracker) check(pass *analysis.Pass, sp spec, body *ast.BlockStmt, g *cfg.Graph) {
	// A deferred release (directly or inside a deferred closure) pairs
	// every path, including panic unwinds, at once.
	if tk.deferredRelease(body) {
		return
	}

	prob := dataflow.Problem[uint8]{
		Boundary: 0,
		Bottom:   func() uint8 { return 0 },
		Join:     func(a, b uint8) uint8 { return a | b },
		Equal:    func(a, b uint8) bool { return a == b },
		Transfer: func(b *cfg.Block, in uint8) uint8 {
			f := in
			for _, n := range b.Nodes {
				f = tk.transferNode(n, f, nil)
			}
			return f
		},
		EdgeTransfer: tk.edgeTransfer,
	}
	res := dataflow.Solve(g, prob)

	// Re-walk the solved graph to place diagnostics. At most one leak is
	// reported per acquire, by precedence: a loop-carried reacquire
	// outranks a leaking return, which outranks a reassignment, which
	// outranks the fall-through exit, which outranks a possible panic
	// unwind; within a kind the earliest in the source wins.
	best := leakReport{kind: leakNone}
	note := func(r leakReport) {
		if best.kind == leakNone || r.kind < best.kind || (r.kind == best.kind && r.at.Pos() < best.at.Pos()) {
			best = r
		}
	}
	for _, blk := range g.Blocks {
		f := res.In[blk.Index]
		for _, n := range blk.Nodes {
			f = tk.transferNode(n, f, note)
		}
		// Natural fall-through into exit with the handle still held:
		// return and panic terminators are handled elsewhere.
		if f&heldBit != 0 && tk.fallsToExit(blk, g) {
			note(leakReport{kind: leakFallThrough, at: tk.acq})
		}
	}

	line := 0
	if best.kind != leakNone {
		line = pass.Fset.Position(best.at.Pos()).Line
	}
	switch best.kind {
	case leakLoopCarried:
		pass.Reportf(tk.call.Pos(), sp.leakCode,
			"%s acquired by %s is still unreleased when the loop reacquires it at line %d (loop-carried leak; release it before the next iteration, or defer inside the loop body)",
			sp.noun, effects.CallLabel(tk.call), line)
	case leakReturn:
		pass.Reportf(tk.call.Pos(), sp.leakCode,
			"%s acquired by %s is not released on the return path at line %d (call %s before returning, or defer it)",
			sp.noun, effects.CallLabel(tk.call), line, tk.release)
	case leakReassign:
		pass.Reportf(tk.call.Pos(), sp.leakCode,
			"%s acquired by %s is still unreleased when its variable is reassigned at line %d (the handle is overwritten; release it first)",
			sp.noun, effects.CallLabel(tk.call), line)
	case leakFallThrough:
		pass.Reportf(tk.call.Pos(), sp.leakCode,
			"%s acquired by %s is never released (no %s on the fall-through path; add a defer)",
			sp.noun, effects.CallLabel(tk.call), tk.release)
	case leakPanic:
		// Every path is paired by non-deferred releases — but that proof
		// assumes control reaches them. A panic while the handle is held
		// unwinds past all of them (the runtime contains it as a
		// misspeculation or a KernelPanic, so the process survives with
		// the resource pinned). Deferral is the only panic-proof pairing.
		pass.Reportf(tk.call.Pos(), sp.leakCode,
			"%s acquired by %s leaks if %s at line %d panics before the non-deferred %s; release it with defer",
			sp.noun, effects.CallLabel(tk.call), effects.CallLabel(best.at.(*ast.CallExpr)), line, tk.release)
	}
}

// transferNode applies one CFG node to the fact. When note is non-nil
// the walk is the reporting pass and leak events are recorded; the
// solver pass runs with note == nil.
func (tk *tracker) transferNode(n ast.Node, f uint8, note func(leakReport)) uint8 {
	if n == ast.Node(tk.acq) {
		if f&heldBit != 0 && note != nil {
			note(leakReport{kind: leakLoopCarried, at: tk.acq})
		}
		return f | heldBit
	}

	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// Deferred work runs at unwind; a deferred release was already
			// credited globally, and mentions of the handle inside other
			// defers neither release nor leak it here.
			return false
		case *ast.FuncLit:
			// The handle escaping into a closure transfers ownership: the
			// closure (or whoever it is handed to) releases it.
			if usesObj(tk.info, m.Body, tk.res) {
				f &^= heldBit
			}
			return false
		case *ast.CallExpr:
			if tk.isRelease(m) {
				f &^= heldBit
				return false
			}
			if f&heldBit != 0 && note != nil && mayPanic(tk.info, m) {
				note(leakReport{kind: leakPanic, at: m})
			}
		case *ast.ReturnStmt:
			escapes := false
			for _, r := range m.Results {
				if usesObj(tk.info, r, tk.res) {
					escapes = true
				}
			}
			if escapes {
				f &^= heldBit // caller owns the handle now
			} else if f&heldBit != 0 && note != nil {
				note(leakReport{kind: leakReturn, at: m})
			}
		case *ast.AssignStmt:
			for _, rhs := range m.Rhs {
				if tk.isRes(rhs) {
					f &^= heldBit // aliased or stored away: ownership transferred
				}
			}
			for _, lhs := range m.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && tk.info.ObjectOf(id) == tk.res {
					if f&heldBit != 0 && note != nil {
						note(leakReport{kind: leakReassign, at: m})
					}
					f &^= heldBit // the old handle value is gone
				}
			}
		case *ast.SendStmt:
			if tk.isRes(m.Value) {
				f &^= heldBit
			}
		}
		return true
	})
	return f
}

// edgeTransfer clears the held bit along edges that prove the handle was
// never granted: the taken edge of an error check, or the nil side of a
// nil comparison on the handle itself.
func (tk *tracker) edgeTransfer(b *cfg.Block, succIdx int, out uint8) uint8 {
	if out&heldBit == 0 || b.Branch == nil {
		return out
	}
	if obj, eq, isNilCmp := tk.nilCompare(b.Branch); isNilCmp {
		// For the error value, the acquire failed where the error is
		// non-nil: err != nil clears on the true edge, err == nil on the
		// false edge. For the handle, nothing is held where it is nil:
		// res == nil clears on the true edge, res != nil on the false edge.
		var clearOnTrue bool
		if obj == tk.errObj && tk.errObj != nil {
			clearOnTrue = !eq
		} else {
			clearOnTrue = eq
		}
		if clearOnTrue == (succIdx == 0) {
			return out &^ heldBit
		}
		return out
	}
	// Any other condition mentioning the error value exempts its taken
	// branch: compound conditions like `err != nil || retry` are error
	// paths too.
	if tk.errObj != nil && succIdx == 0 && usesObj(tk.info, b.Branch, tk.errObj) {
		return out &^ heldBit
	}
	return out
}

// nilCompare matches `x == nil` / `x != nil` (either operand order) where
// x resolves to the handle or the error variable; eq reports ==.
func (tk *tracker) nilCompare(cond ast.Expr) (obj types.Object, eq, ok bool) {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false, false
	}
	classify := func(e ast.Expr) (types.Object, bool) {
		id, isID := ast.Unparen(e).(*ast.Ident)
		if !isID {
			return nil, false
		}
		o := tk.info.ObjectOf(id)
		if o == tk.res || (tk.errObj != nil && o == tk.errObj) {
			return o, false
		}
		if id.Name == "nil" {
			return nil, true
		}
		return nil, false
	}
	lo, lNil := classify(bin.X)
	ro, rNil := classify(bin.Y)
	switch {
	case lo != nil && rNil:
		return lo, bin.Op == token.EQL, true
	case ro != nil && lNil:
		return ro, bin.Op == token.EQL, true
	}
	return nil, false, false
}

// fallsToExit reports whether blk's edge into Exit is a natural
// fall-through (not a return or an explicit panic, which carry their own
// reporting rules).
func (tk *tracker) fallsToExit(blk *cfg.Block, g *cfg.Graph) bool {
	toExit := false
	for _, s := range blk.Succs {
		if s == g.Exit {
			toExit = true
		}
	}
	if !toExit || blk == g.Exit {
		return false
	}
	if len(blk.Nodes) > 0 {
		switch last := blk.Nodes[len(blk.Nodes)-1].(type) {
		case *ast.ReturnStmt:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					return false // reported as a possible panic unwind
				}
			}
		}
	}
	return true
}

// deferredRelease reports whether body defers a release of the handle,
// directly or inside a deferred closure.
func (tk *tracker) deferredRelease(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if tk.isRelease(d.Call) {
			found = true
			return false
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && tk.isRelease(c) {
					found = true
				}
				return !found
			})
		}
		return false
	})
	return found
}

func (tk *tracker) isRes(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && tk.info.ObjectOf(id) == tk.res
}

func (tk *tracker) isRelease(c *ast.CallExpr) bool {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == tk.release && tk.isRes(sel.X)
}

// mayPanic is the heuristic behind the defer fix-it: a call whose callee
// is dynamic — a func-typed value or an interface method — has an unknown
// body and may panic, as may an explicit panic(). Static calls to named
// functions are assumed to uphold their contracts (flagging every call
// would demand defer everywhere and drown the real findings).
func mayPanic(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.ObjectOf(fun).(type) {
		case *types.Builtin:
			return obj.Name() == "panic"
		case *types.Var:
			return true // func-typed local or parameter: unknown body
		}
	case *ast.SelectorExpr:
		switch obj := info.ObjectOf(fun.Sel).(type) {
		case *types.Var:
			return true // func-typed field
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type().Underlying()) {
					return true // dynamic dispatch
				}
			}
		}
	}
	return false
}

// usesObj reports whether the subtree n mentions obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
