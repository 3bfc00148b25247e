// Package atomicmix defines the ATOM001-ATOM003 analyzers guarding the
// runtime's published-atomics discipline.
//
//	ATOM001  a variable/field is accessed both through sync/atomic and
//	         plainly — the plain access races with the atomic ones
//	ATOM002  Cond.Broadcast/Signal without the gate lock held around it,
//	         or Cond.Wait on a counted gate without registering first
//	ATOM003  a waitGate-style wake() with no atomic publish before it
//
// The join handshake (internal/core) communicates through published
// atomics plus a waitGate: waiters spin on atomic predicates and park
// under the gate lock; wakers must store the new state atomically
// BEFORE calling wake, or a waiter can check stale state, park, and miss
// the wakeup forever. The same holds for the worker's task slot: the
// slot's plain fields are written first, then the ready flag is stored
// atomically, then the gate is woken.
//
// wake has a fast path: it reads the gate's waiter count and skips
// lock+broadcast when nobody is registered. That is only sound if every
// waiter registers in that count — under the gate lock, before its last
// predicate check and its Cond.Wait — so a gate whose wake returns early
// on `count.Load() == 0` (a "counted gate") makes an unregistered
// Cond.Wait a lost wakeup. ATOM002/ATOM003 encode exactly that protocol;
// ATOM001 is the general mixed-access race that also breaks it.
//
// Neutral contexts do not count as plain accesses for ATOM001: slicing
// (re-slices the header), len/cap, composite-literal construction, and
// keyless range (reads only the header).
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// Diagnostic codes.
const (
	CodeMixed    = "ATOM001"
	CodeBareWake = "ATOM002"
	CodeNoStore  = "ATOM003"
)

var Analyzer = &analysis.Analyzer{
	Name:  "atomicmix",
	Doc:   "flag mixed atomic/plain access to the same variable and waitGate wake-ordering violations",
	Codes: []string{CodeMixed, CodeBareWake, CodeNoStore},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	checkMixed(pass)
	counts := waiterCounts(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkWakeOrder(pass, fd.Body, counts)
			}
		}
	}
	return nil
}

// --- ATOM001: mixed atomic and plain access ---

func checkMixed(pass *analysis.Pass) {
	info := pass.TypesInfo

	// Pass 1: variables reached through &x as an argument of a
	// sync/atomic function, and the spans of those argument expressions.
	atomicObjs := make(map[*types.Var]int) // the line of the first atomic use
	var atomicSpans []span
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				atomicSpans = append(atomicSpans, span{arg.Pos(), arg.End()})
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				// The variable actually operated on: the field a path
				// ends in (x.f, x.f[i]), else the variable it starts at.
				acc := effects.Resolve(info, un.X)
				v := acc.Field
				if v == nil {
					v = acc.Base
				}
				if v != nil {
					if _, seen := atomicObjs[v]; !seen {
						atomicObjs[v] = pass.Fset.Position(arg.Pos()).Line
					}
				}
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}

	// Pass 2: neutral spans — contexts where touching the variable does
	// not read or write its (element) value.
	var neutral []span
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SliceExpr:
				neutral = append(neutral, span{n.X.Pos(), n.X.End()})
			case *ast.CompositeLit:
				neutral = append(neutral, span{n.Pos(), n.End()})
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
						neutral = append(neutral, span{n.Pos(), n.End()})
					}
				}
			case *ast.RangeStmt:
				if n.Value == nil { // for i := range x — header only
					neutral = append(neutral, span{n.X.Pos(), n.X.End()})
				}
			}
			return true
		})
	}
	covered := func(pos token.Pos, spans []span) bool {
		for _, s := range spans {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}

	// Pass 3: any remaining use of an atomic variable is a plain access.
	reported := make(map[*types.Var]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			first, isAtomic := atomicObjs[v]
			if !isAtomic || reported[v] {
				return true
			}
			if covered(id.Pos(), atomicSpans) || covered(id.Pos(), neutral) {
				return true
			}
			reported[v] = true
			pass.Reportf(id.Pos(), CodeMixed,
				"%q is accessed with sync/atomic (line %d) and plainly here; the plain access races with the atomic ones — use one discipline for every access", v.Name(), first)
			return true
		})
	}
}

type span struct{ lo, hi token.Pos }

// isSyncAtomicCall reports whether call invokes a sync/atomic function
// (the address-taking style: atomic.AddInt64(&x, 1)).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeIn(info, call, "sync/atomic")
	return fn != nil && fn.Type().(*types.Signature).Recv() == nil
}

// calleeIn resolves call's static callee when it is declared in the
// package at path, and nil otherwise.
func calleeIn(info *types.Info, call *ast.CallExpr, path string) *types.Func {
	fn := effects.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != path {
		return nil
	}
	return fn
}

// --- ATOM002/ATOM003: waitGate wake ordering ---

// waiterCounts finds the package's counted gates: for every wake method
// of a gate-shaped type whose body returns early on
// `recv.count.Load() == 0`, it maps the gate's struct type to that count
// field.
func waiterCounts(pass *analysis.Pass) map[*types.Struct]*types.Var {
	info := pass.TypesInfo
	counts := make(map[*types.Struct]*types.Var)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "wake" || len(fd.Recv.List) != 1 {
				continue
			}
			st := gateStruct(info.TypeOf(fd.Recv.List[0].Type))
			if st == nil {
				continue
			}
			for _, stmt := range fd.Body.List {
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || ifs.Init != nil || len(ifs.Body.List) != 1 {
					continue
				}
				if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); !ok {
					continue
				}
				cmp, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
				if !ok || cmp.Op != token.EQL {
					continue
				}
				if lit, ok := ast.Unparen(cmp.Y).(*ast.BasicLit); !ok || lit.Value != "0" {
					continue
				}
				call, ok := ast.Unparen(cmp.X).(*ast.CallExpr)
				if !ok || methodName(call) != "Load" {
					continue
				}
				if f := atomicField(info, call); f != nil {
					counts[st] = f
				}
			}
		}
	}
	return counts
}

// atomicField resolves recv.field in a recv.field.Method() call on a
// sync/atomic value type to the field's variable.
func atomicField(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || calleeIn(info, call, "sync/atomic") == nil {
		return nil
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, _ := info.Uses[field.Sel].(*types.Var)
	return v
}

// checkWakeOrder enforces, per function body, that Cond.Broadcast/Signal
// runs between Lock and Unlock and that a Cond.Wait on a counted gate is
// preceded, under the lock, by an Add on the gate's waiter count
// (ATOM002), and that a wake() on a gate-shaped type has an atomic
// publish lexically before it (ATOM003).
func checkWakeOrder(pass *analysis.Pass, body *ast.BlockStmt, counts map[*types.Struct]*types.Var) {
	info := pass.TypesInfo
	var (
		locks, unlocks, publishes []token.Pos
		deferredUnlock            bool
		registers                 = make(map[*types.Var][]token.Pos)
	)
	type wakeCall struct {
		call *ast.CallExpr
		bare bool // Broadcast/Signal (ATOM002) vs wake() (ATOM003)
	}
	var wakes []wakeCall

	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if name := methodName(d.Call); name == "Unlock" {
				deferredUnlock = true
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch methodName(call) {
		case "Lock":
			locks = append(locks, call.Pos())
		case "Unlock":
			unlocks = append(unlocks, call.Pos())
		case "Broadcast", "Signal":
			if isCondMethod(info, call) {
				wakes = append(wakes, wakeCall{call, true})
			}
		case "Wait":
			if isCondMethod(info, call) {
				checkRegistered(pass, call, counts, locks, registers)
			}
		case "Add":
			if f := atomicField(info, call); f != nil {
				registers[f] = append(registers[f], call.Pos())
			}
		case "wake":
			if isGateMethod(info, call) {
				wakes = append(wakes, wakeCall{call, false})
			}
		}
		if isSyncAtomicCall(info, call) || isAtomicValueMethod(info, call) {
			publishes = append(publishes, call.Pos())
		}
		return true
	})

	before := func(ps []token.Pos, pos token.Pos) bool {
		for _, p := range ps {
			if p < pos {
				return true
			}
		}
		return false
	}
	after := func(ps []token.Pos, pos token.Pos) bool {
		for _, p := range ps {
			if p > pos {
				return true
			}
		}
		return false
	}

	for _, w := range wakes {
		pos := w.call.Pos()
		if w.bare {
			if !before(locks, pos) || !(deferredUnlock || after(unlocks, pos)) {
				pass.Reportf(pos, CodeBareWake,
					"Cond.%s outside the gate lock; a waiter can check, miss the signal, then park forever — hold the lock around the broadcast (waitGate.wake does)", methodName(w.call))
			}
			continue
		}
		if !before(publishes, pos) {
			pass.Reportf(pos, CodeNoStore,
				"wake() with no atomic publish before it in this function; waiters' predicates read published atomics, so store the new state atomically before waking (or the wakeup is lost)")
		}
	}
}

// checkRegistered reports a Cond.Wait on a counted gate that no Add on the
// gate's waiter count precedes under the lock. locks and registers hold
// the positions seen so far in the function, which the inspection visits
// in source order.
func checkRegistered(pass *analysis.Pass, wait *ast.CallExpr, counts map[*types.Struct]*types.Var, locks []token.Pos, registers map[*types.Var][]token.Pos) {
	// wait is g.cond.Wait(): the gate is the cond field's owner.
	sel, ok := ast.Unparen(wait.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	cond, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	count := counts[gateStruct(pass.TypesInfo.TypeOf(cond.X))]
	if count == nil {
		return
	}
	for _, add := range registers[count] {
		for _, lock := range locks {
			if lock < add {
				return
			}
		}
	}
	pass.Reportf(wait.Pos(), CodeBareWake,
		"Cond.Wait on a counted gate without %s.Add under the lock first; wake skips the broadcast while the count reads zero, so an unregistered waiter sleeps forever", count.Name())
}

func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// isCondMethod reports whether call is a method of sync.Cond.
func isCondMethod(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeIn(info, call, "sync")
	return fn != nil && fn.Type().(*types.Signature).Recv() != nil
}

// isGateMethod reports whether call is a method named wake on a struct
// type that embeds a sync.Cond (the waitGate shape).
func isGateMethod(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && gateStruct(info.TypeOf(sel.X)) != nil
}

// gateStruct returns the struct behind t (or *t) when it has a sync.Cond
// field — the waitGate shape — and nil otherwise.
func gateStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if named, ok := ft.(*types.Named); ok &&
			named.Obj().Name() == "Cond" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
			return st
		}
	}
	return nil
}

// isAtomicValueMethod reports whether call is a mutating method of an
// atomic.Int64-style value (Store/Add/Swap/CompareAndSwap/Or/And).
func isAtomicValueMethod(info *types.Info, call *ast.CallExpr) bool {
	switch methodName(call) {
	case "Store", "Add", "Swap", "CompareAndSwap", "Or", "And":
		return calleeIn(info, call, "sync/atomic") != nil
	}
	return false
}
