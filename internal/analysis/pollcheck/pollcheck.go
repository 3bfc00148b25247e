// Package pollcheck defines the POLL001 analyzer: loops inside
// speculative kernel bodies must reach a CheckPoint/CancelPoint poll.
//
// The paper inserts MUTLS_check_point inside loops "so the
// non-speculative thread never waits long"; in this reproduction a
// poll-free kernel loop additionally defeats squash (a rolled-back thread
// drains the whole chunk before noticing) and PR 7's cooperative
// cancellation (RunCtx deadlines unwind at polls). A loop is compliant
// when its body contains a CheckPoint/CancelPoint call, calls a
// same-package function that (transitively) polls, or when the driving
// ForRange call itself configures ForOptions.PollEvery, which sub-steps
// the kernel and polls between invocations (For speculates one index per
// fork: its driver has no sub-steps to poll between).
//
// The check applies to the chunk/token drivers (For, ForRange, Reduce,
// ReduceFunc, ReduceFloat64, Pipeline) whose join protocol can commit a
// stopped chunk's prefix; tree-form regions (Tree.Body) are joined whole
// and are exempt.
package pollcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/kernelutil"
)

// Code is the diagnostic code of this analyzer.
const Code = "POLL001"

var Analyzer = &analysis.Analyzer{
	Name:  "pollcheck",
	Doc:   "flag loops in speculative kernel bodies with no reachable CheckPoint/CancelPoint poll",
	Codes: []string{Code},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	pollers := kernelutil.PollingFuncs(pass)
	for _, k := range kernelutil.Find(pass) {
		if !k.LoopDriver || k.DriverPolls {
			continue
		}
		checkBody(pass, pollers, k.Lit.Body)
	}
	return nil
}

// checkBody flags the outermost poll-free loops of a kernel body. Only
// loops that actually drive speculative work (any Thread method call or a
// call receiving a Thread) are reported; a pure-Go loop over locals has
// nothing for the protocol to interrupt mid-flight that a surrounding
// flagged loop would not already cover.
func checkBody(pass *analysis.Pass, pollers map[*types.Func]bool, body *ast.BlockStmt) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
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
			pass.Reportf(n.Pos(), Code,
				"loop in speculative kernel has no reachable CheckPoint/CancelPoint poll; squash and cancellation stall until the chunk drains (poll in the loop, call a polling helper, or set ForOptions.PollEvery on a ForRange)")
			return false // do not double-report its inner loops
		}
		return true
	}
	ast.Inspect(body, visit)
}

// loopPolls reports whether the loop body contains a poll: a direct
// CheckPoint/CancelPoint call or a call to a same-package function that
// transitively polls.
func loopPolls(pass *analysis.Pass, pollers map[*types.Func]bool, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kernelutil.IsPollCall(pass.TypesInfo, call) {
			found = true
			return false
		}
		if fn := kernelutil.CalleeFunc(pass.TypesInfo, call); fn != nil && pollers[fn] {
			found = true
			return false
		}
		return true
	})
	return found
}

// usesThread reports whether the loop body performs speculative work: a
// method call on a Thread or a call passing a Thread argument.
func usesThread(pass *analysis.Pass, body *ast.BlockStmt) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := info.TypeOf(sel.X); t != nil && kernelutil.IsThreadPtr(t) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil && kernelutil.IsThreadPtr(t) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
