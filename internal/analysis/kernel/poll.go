package kernel

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// CodePoll is the diagnostic code of pollcheck.
const CodePoll = "POLL001"

// Pollcheck requires loops inside speculative kernel bodies to reach a
// CheckPoint/CancelPoint poll.
//
// The paper inserts MUTLS_check_point inside loops "so the
// non-speculative thread never waits long"; in this reproduction a
// poll-free kernel loop additionally defeats squash (a rolled-back thread
// drains the whole chunk before noticing) and cooperative cancellation
// (RunCtx deadlines unwind at polls). A loop is compliant when its body
// contains a CheckPoint/CancelPoint call or calls a same-package function
// that (transitively) polls; kernels whose driver polls for them, and
// tree-form regions, are exempt (Kernel.NeedsPoll).
var Pollcheck = &analysis.Analyzer{
	Name:  "pollcheck",
	Doc:   "flag loops in speculative kernel bodies with no reachable CheckPoint/CancelPoint poll",
	Codes: []string{CodePoll},
	Run: func(pass *analysis.Pass) error {
		pollers := pollingFuncs(pass)
		for _, k := range pass.Kernels {
			if k.NeedsPoll {
				checkLoops(pass, pollers, k)
			}
		}
		return nil
	},
}

// checkLoops flags the outermost poll-free loops of a kernel body. Only
// loops that actually drive speculative work (any Thread method call or a
// call receiving a Thread) are reported; a pure-Go loop over locals has
// nothing for the protocol to interrupt mid-flight that a surrounding
// flagged loop would not already cover.
func checkLoops(pass *analysis.Pass, pollers map[*types.Func]bool, k analysis.Kernel) {
	inspect(pass, k, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
		case *ast.RangeStmt:
			loopBody = loop.Body
		default:
			return true
		}
		if loopPolls(pass, pollers, loopBody) {
			// The loop reaches a poll every iteration: its nested loops
			// run between polls by construction (the mandelRows idiom —
			// per-row poll around a per-pixel inner loop), so stop here.
			return false
		}
		if usesThread(pass, loopBody) {
			pass.Reportf(n.Pos(), CodePoll,
				"loop in speculative kernel has no reachable CheckPoint/CancelPoint poll; squash and cancellation stall until the chunk drains (poll in the loop, call a polling helper, or set ForOptions.PollEvery on a ForRange)")
			return false // do not double-report its inner loops
		}
		return true
	})
}

// anyCall reports whether some call under n satisfies pred.
func anyCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			found = pred(call)
		}
		return !found
	})
	return found
}

// loopPolls reports whether the loop body contains a poll: a direct
// CheckPoint/CancelPoint call or a call to a same-package function that
// transitively polls.
func loopPolls(pass *analysis.Pass, pollers map[*types.Func]bool, body *ast.BlockStmt) bool {
	return anyCall(body, func(call *ast.CallExpr) bool {
		fn := effects.CalleeFunc(pass.TypesInfo, call)
		return fn != nil && (isPoll(fn) || pollers[fn])
	})
}

// usesThread reports whether the loop body performs speculative work: a
// method call on a Thread or a call passing a Thread argument.
func usesThread(pass *analysis.Pass, body *ast.BlockStmt) bool {
	info := pass.TypesInfo
	return anyCall(body, func(call *ast.CallExpr) bool {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isThreadPtr(info.TypeOf(sel.X)) {
			return true
		}
		for _, arg := range call.Args {
			if isThreadPtr(info.TypeOf(arg)) {
				return true
			}
		}
		return false
	})
}

// isPoll reports whether fn is Thread.CheckPoint or Thread.CancelPoint.
func isPoll(fn *types.Func) bool {
	if fn.Name() != "CheckPoint" && fn.Name() != "CancelPoint" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isThreadPtr(sig.Recv().Type())
}

// pollingFuncs returns the package-level functions and methods of the
// pass whose bodies (transitively through same-package calls, bounded
// depth) poll.
func pollingFuncs(pass *analysis.Pass) map[*types.Func]bool {
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
		body, ok := bodies[fn]
		if !ok || depth > 3 {
			return false
		}
		polls[fn] = false // cut recursion
		polls[fn] = anyCall(body, func(call *ast.CallExpr) bool {
			callee := effects.CalleeFunc(info, call)
			return callee != nil && (isPoll(callee) || check(callee, depth+1))
		})
		return polls[fn]
	}
	for fn := range bodies {
		check(fn, 0)
	}
	return polls
}
