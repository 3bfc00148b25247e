package kernel

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// Diagnostic codes of speccheck: everything a speculative kernel executes
// must be squashable. A misspeculated chunk is rolled back by discarding
// its buffered state and re-executing, so memory traffic that bypasses
// the GlobalBuffer is invisible to conflict detection, survives rollback
// and races with re-executions of the same chunk (SPEC, EFFECT003), and
// an effect that escapes the buffer or computes differently the second
// time silently breaks the paper's correctness contract (EFFECT).
//
// Reading captured scalars (addresses, sizes, options) is allowed: those
// are the kernel's live-ins, fixed at fork time. Calls into the mutls
// runtime itself (Exempt) are the sanctioned way to touch shared state.
const (
	CodeCapturedWrite = "SPEC001"   // write to a variable captured from outside the kernel
	CodeRawSlice      = "SPEC002"   // raw element access (read or write) of a captured slice/map
	CodeViewEscape    = "SPEC003"   // a slice filled by a bulk Load view escapes to captured state
	CodeIO            = "EFFECT001" // irreversible I/O or syscall reached from a kernel
	CodeSync          = "EFFECT002" // channel/mutex/WaitGroup operation inside a kernel
	CodeHelper        = "EFFECT003" // captured or package-level memory mutated via a called helper
	CodeNonIdem       = "EFFECT004" // non-idempotent call (rand, time) feeding speculative work
)

// Speccheck applies the effects classifier (effects.Index.Visit) to each
// kernel body with the kernel's notion of shared — declared outside the
// closure — so a write is found the same way whether the kernel makes it
// itself (SPEC001/SPEC002) or a helper two calls deep does (EFFECT003).
// The raw reads, which no summary carries, are checked on the same walk.
var Speccheck = &analysis.Analyzer{
	Name:  "speccheck",
	Doc:   "flag what a speculative kernel does outside the speculation buffer: captured-variable writes, raw captured slice/map element access and escaping bulk-view slices (SPEC), and — through interprocedural effect summaries — irreversible I/O, channel/lock traffic, helper-mediated shared-memory writes and non-idempotent time/rand calls (EFFECT)",
	Codes: []string{CodeCapturedWrite, CodeRawSlice, CodeViewEscape, CodeIO, CodeSync, CodeHelper, CodeNonIdem},
	Run: func(pass *analysis.Pass) error {
		for _, k := range pass.Kernels {
			checkKernel(pass, k)
		}
		return nil
	},
}

// exemptPkgs are the runtime's own packages: their entry points are the
// sanctioned speculation API (Thread accessors, drivers, stats), with
// rollback-aware internals. internal/bench and the examples are NOT
// exempt — their helpers are exactly the user code this analyzer audits.
var exemptPkgs = map[string]bool{
	"repro/mutls":                true,
	"repro/mutls/pool":           true,
	"repro/internal/core":        true,
	"repro/internal/gbuf":        true,
	"repro/internal/lbuf":        true,
	"repro/internal/mem":         true,
	"repro/internal/vclock":      true,
	"repro/internal/predict":     true,
	"repro/internal/stats":       true,
	"repro/internal/faultinject": true,
	"repro/internal/harness":     true,
}

// Exempt reports the runtime's own API (any method on *Thread, every
// function in the runtime packages). The driver installs it as the effect
// index's propagation stop, so neither a kernel nor a helper that merely
// polls CheckPoint — which may sleep inside the fault injector — is
// charged with Blocks.
func Exempt(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isThreadPtr(sig.Recv().Type()) {
		return true
	}
	return fn.Pkg() != nil && exemptPkgs[fn.Pkg().Path()]
}

// calleeEffects words the finding for each effect bit of a callee's
// summary: "speculative kernel calls F, which <does> (<chain>); <why>".
var calleeEffects = map[effects.Effect]struct{ code, does, why string }{
	effects.DoesIO:        {CodeIO, "performs irreversible I/O", "a squashed chunk re-executes the call and the first attempt cannot be undone — buffer the output and emit it after the join"},
	effects.Blocks:        {CodeSync, "blocks on channel/lock traffic", "a speculative thread that blocks can deadlock against its own squash and locks are not released on rollback"},
	effects.NonIdempotent: {CodeNonIdem, "is non-idempotent", "a squashed chunk re-executes with a different result, so the committed state depends on rollback timing — hoist the value before the fork"},
	effects.WritesShared:  {CodeHelper, "writes package-level shared state", "the write bypasses the speculation buffer — not undone on rollback, races with re-execution"},
}

func checkKernel(pass *analysis.Pass, k analysis.Kernel) {
	info := pass.TypesInfo

	// captured resolves an expression (x, x.f, x[i], *x, &x, x[i:j]) to
	// the variable at its base when the kernel captures it: a non-field
	// variable declared outside the closure's extent, package-level
	// variables included — they are equally shared.
	captured := func(e ast.Expr) *types.Var {
		v := effects.Resolve(info, e).Base
		if v == nil || v.IsField() || (v.Pos() >= k.Lit.Pos() && v.Pos() <= k.Lit.End()) {
			return nil // declared inside the closure (params included)
		}
		return v
	}

	// viewDst collects the local slice variables used as destinations of
	// bulk Load views inside this kernel (LoadWords, LoadInt64s, ...);
	// written marks index expressions seen as write targets, so the
	// read-position visit does not report them again.
	viewDst := make(map[*types.Var]bool)
	written := make(map[*ast.IndexExpr]bool)

	event := func(ev effects.Event) {
		pos := ev.Node.Pos()
		call, _ := ev.Node.(*ast.CallExpr)
		switch {
		case ev.Target != nil && call == nil:
			// The kernel writes ev.Target itself.
			target := ast.Unparen(ev.Target)
			if idx, ok := target.(*ast.IndexExpr); ok {
				written[idx] = true
			}
			v := captured(target)
			if v == nil {
				return
			}
			how := ""
			switch t := target.(type) {
			case *ast.IndexExpr:
				if isCollection(info.TypeOf(t.X)) {
					pass.Reportf(pos, CodeRawSlice,
						"speculative kernel writes element of captured %s %q directly; shared-slice traffic must go through the Thread bulk accessors (StoreWords/StoreInt64s/...)", kindOf(info.TypeOf(t.X)), v.Name())
					return
				}
				how = " through an index expression"
			case *ast.SelectorExpr:
				how = " through field " + t.Sel.Name
			case *ast.StarExpr:
				how = " through a pointer dereference"
			}
			pass.Reportf(pos, CodeCapturedWrite,
				"speculative kernel writes captured variable %q%s; the write bypasses the speculation buffer (not undone on rollback, races with re-execution) — route it through the Thread accessors or move it after the join", v.Name(), how)

		case ev.Target != nil:
			// A callee writes through an operand of the call.
			v := captured(ev.Target)
			if v == nil {
				return
			}
			if ev.Recv {
				pass.Reportf(pos, CodeHelper,
					"speculative kernel calls %s on captured %q, and the method writes through its receiver; the mutation bypasses the speculation buffer — not undone on rollback", effects.CallLabel(call), v.Name())
				return
			}
			pass.Reportf(pos, CodeHelper,
				"speculative kernel passes captured %q to %s, which writes through that parameter; the helper's write bypasses the speculation buffer (not undone on rollback, races with re-execution) — route it through the Thread accessors or move the call after the join", v.Name(), effects.CallLabel(call))

		case ev.Callee != nil:
			name := effects.CallLabel(call)
			via := "via " + ev.Via
			if ev.Via == "" || ev.Via == name {
				via = "directly"
			}
			m := calleeEffects[ev.Effect]
			pass.Reportf(pos, m.code, "speculative kernel calls %s, which %s (%s); %s", name, m.does, via, m.why)

		case call != nil:
			pass.Reportf(pos, CodeSync,
				"speculative kernel closes a channel; the close is observable before commit and re-execution double-closes")

		default:
			switch ev.Node.(type) {
			case *ast.SendStmt:
				pass.Reportf(pos, CodeSync,
					"speculative kernel sends on a channel; the send is visible before the speculation commits and is not undone on rollback — move channel traffic after the join")
			case *ast.UnaryExpr:
				pass.Reportf(pos, CodeSync,
					"speculative kernel receives from a channel; a blocked speculative thread deadlocks its own squash and the receive consumes a value that re-execution needs again")
			case *ast.SelectStmt:
				pass.Reportf(pos, CodeSync,
					"speculative kernel executes select; channel traffic inside a speculation is not undone on rollback")
			case *ast.GoStmt:
				pass.Reportf(pos, CodeSync,
					"speculative kernel spawns a goroutine; the goroutine outlives a squash and its work escapes rollback")
			}
		}
	}

	inspect(pass, k, func(n ast.Node) bool {
		pass.Effects.Visit(info, nil, n, event)

		// What no summary carries: raw reads of captured collections —
		// on rollback they were never validated — and view slices
		// escaping the speculation that loaded them.
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && viewDst[v] {
						if cv := captured(n.Lhs[i]); cv != nil {
							pass.Reportf(rhs.Pos(), CodeViewEscape,
								"bulk-view destination slice %q escapes the kernel closure into captured %q; view contents are only valid inside the speculation that loaded them", v.Name(), cv.Name())
						}
					}
				}
				// append(capturedSlice, ...) assigned anywhere is a write
				// to captured backing storage.
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" && len(call.Args) > 0 {
						if v := captured(call.Args[0]); v != nil && isCollection(info.TypeOf(call.Args[0])) {
							pass.Reportf(call.Pos(), CodeRawSlice,
								"speculative kernel appends to captured slice %q; the append mutates shared backing storage outside the speculation buffer", v.Name())
						}
					}
				}
			}
		case *ast.RangeStmt:
			if v := captured(n.X); v != nil && isCollection(info.TypeOf(n.X)) {
				pass.Reportf(n.X.Pos(), CodeRawSlice,
					"speculative kernel ranges over captured %s %q; shared-collection reads bypass the speculation buffer (load through the Thread bulk accessors instead)", kindOf(info.TypeOf(n.X)), v.Name())
			}
		case *ast.IndexExpr:
			if written[n] {
				return true
			}
			if v := captured(n.X); v != nil && isCollection(info.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), CodeRawSlice,
					"speculative kernel reads element of captured %s %q directly; the read bypasses the speculation buffer (never validated at the join) — load through the Thread accessors", kindOf(info.TypeOf(n.X)), v.Name())
			}
		case *ast.CallExpr:
			if dst := bulkViewDst(info, n); dst != nil {
				viewDst[dst] = true
			}
		}
		return true
	})
}

// bulkViewDst returns the local slice variable a bulk Load view call
// fills (c.LoadWords(p, dst), c.LoadFloat64s(p, dst), ...).
func bulkViewDst(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	name := sel.Sel.Name
	if !strings.HasPrefix(name, "Load") || !strings.HasSuffix(name, "s") || !isThreadPtr(info.TypeOf(sel.X)) {
		return nil
	}
	id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// isCollection reports a slice, map or array: a type whose elements are
// read and written in place.
func isCollection(t types.Type) bool {
	return t != nil && kindOf(t) != ""
}

// kindOf names t's collection kind for diagnostics ("" for none).
func kindOf(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Array:
		return "array"
	}
	return ""
}
