// Package effects computes interprocedural effect summaries over the
// module call graph: for every function with source, a bottom-up
// bitset of the irreversible or ordering-sensitive things its execution
// may do (I/O, channel/lock traffic, shared-state writes, non-idempotent
// reads), plus which pointer-shaped parameters and receivers it writes
// through.
//
// One classifier answers "what does this node do" for both consumers:
// Index.Visit turns an AST node into Events — an effect bit, or a write
// with its target resolved to an Access — and the index folds the events
// of a function body into that function's Summary, while the kernel
// analyzers (internal/analysis/kernel) map the events of a speculative
// kernel body to diagnostics. The two differ only in what they call
// shared: a summary charges package-level state and memory reached
// through a parameter or the receiver; a kernel charges everything
// declared outside its closure.
//
// The lattice is a finite bitset, so the index iterates the whole
// summary map to a fixed point (cycles in the call graph converge
// because union only grows). Functions without source — the standard
// library seen through export data, or module packages outside the
// index's sources — fall back to a curated table of the stdlib's
// effect-relevant API; anything unknown is assumed pure. That default is
// the analyzer's trust boundary: dynamic calls (func values, interface
// methods) and unlisted externals are not charged, trading missed
// findings for a usable false-positive rate inside speculative kernels.
package effects

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Effect is a bitset of observable behaviors a call may perform.
type Effect uint8

const (
	// WritesShared: writes package-level state — not undone on rollback.
	WritesShared Effect = 1 << iota
	// DoesIO: irreversible I/O or syscall (files, sockets, stdio, exec).
	DoesIO
	// Blocks: channel, mutex, WaitGroup or sleep traffic — a speculative
	// thread that blocks can deadlock against its own squash, and a lock
	// acquired speculatively is not released on rollback.
	Blocks
	// NonIdempotent: distinct results on re-execution (time, rand) — a
	// squashed-and-replayed chunk computes a different answer.
	NonIdempotent
)

// Pure is the empty effect set.
const Pure Effect = 0

func (e Effect) String() string {
	var parts []string
	for _, p := range []struct {
		bit  Effect
		name string
	}{
		{WritesShared, "writes-shared"},
		{DoesIO, "does-io"},
		{Blocks, "blocks"},
		{NonIdempotent, "non-idempotent"},
	} {
		if e&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, "|")
}

// A Summary is one function's effect set.
type Summary struct {
	Effects Effect
	// ParamWrites has bit i set when the function may write through its
	// i-th parameter (pointer, slice, map — memory the caller shares).
	ParamWrites uint64
	// RecvWrite reports writes through the method receiver.
	RecvWrite bool
	// Via explains, per effect bit, the call chain that introduced it
	// ("helper → os.WriteFile"), for diagnostics.
	Via map[Effect]string
}

// ViaFor returns the chain recorded for effect bit e, if any.
func (s Summary) ViaFor(e Effect) string {
	return s.Via[e]
}

// An Access is the memory an operand expression designates, found by
// peeling x, x.f, x[i], x[i:j], *x, &x and parenthesized forms down to
// the identifier the path starts at.
type Access struct {
	// Base is the variable at the root of the path; nil when the path is
	// rooted in something else (a call result, a literal).
	Base *types.Var
	// Field is the field named by the outermost selector on the path
	// (x.f and x.f[i] give f); nil when the path selects no field.
	Field *types.Var
	// Deref reports that the path crosses a pointer, slice or map, so it
	// reaches memory Base only refers to — memory whoever handed Base in
	// can see. A pure value path (a field of a local struct, an element
	// of a local array) stays private to the variable.
	Deref bool
}

// Resolve peels e to the Access it designates.
func Resolve(info *types.Info, e ast.Expr) Access {
	var acc Access
	for {
		var x ast.Expr // the operand one step down, reached through x's type
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			acc.Base, _ = info.ObjectOf(v).(*types.Var)
			return acc
		case *ast.SelectorExpr:
			sel, _ := info.Uses[v.Sel].(*types.Var)
			if sel != nil && !sel.IsField() {
				acc.Base = sel // pkg.Var: a qualified package-level variable
				return acc
			}
			if acc.Field == nil {
				acc.Field = sel
			}
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return acc
			}
			e = v.X // taking an address crosses nothing
			continue
		default:
			return acc
		}
		acc.Deref = acc.Deref || isRefType(info.TypeOf(x))
		e = x
	}
}

// CalleeFunc resolves a call to the static *types.Func it invokes; nil
// for func values, builtins and conversions. Interface methods resolve
// to the interface's method object (bodyless → stdlib table or pure).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// CallLabel renders a call for diagnostics the way the source spells it:
// "pkg.Func", "recv.Method", or the bare name.
func CallLabel(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return "call"
}

// An Event is one thing Visit found a node to do: perform an effect, or
// write memory.
type Event struct {
	// Node is the statement or expression to report at.
	Node ast.Node
	// Effect is the single effect bit of an effect event; Pure marks a
	// write event.
	Effect Effect
	// Via labels an effect event's origin: the construct ("chan send"),
	// or the chain the callee's summary recorded for the bit.
	Via string
	// Callee is set when the event comes from a call's static callee —
	// its summary said so — and Node is then the *ast.CallExpr. The close
	// and copy builtins yield call events without a Callee.
	Callee *types.Func
	// Target is the expression a write event stores to: an assignment or
	// inc/dec operand, or the argument or receiver operand a callee
	// writes through (Recv tells which). Access is Target resolved; a
	// callee's write is a write through the operand, so it has Deref set.
	Target ast.Expr
	Recv   bool
	Access
}

// A Source is one type-checked package whose function bodies join the
// index.
type Source struct {
	Info  *types.Info
	Files []*ast.File
}

// An Index memoizes effect summaries for a set of source packages.
type Index struct {
	funcs  map[*types.Func]*funcSrc
	sums   map[*types.Func]*Summary
	exempt func(*types.Func) bool
}

type funcSrc struct {
	decl *ast.FuncDecl
	info *types.Info
}

// NewIndex builds the summary index over srcs, iterating the whole map
// to a global fixed point (the effect lattice is finite, so growth
// terminates; cross-package cycles are impossible in Go but mutual
// recursion inside a package is common).
//
// exempt (nil for none) marks callees whose effects do NOT propagate
// into caller summaries. The speculation analyzers exempt the mutls
// runtime's own API this way: Thread.CheckPoint may sleep inside the
// fault injector, but it is rollback-aware, so a helper that polls must
// not inherit Blocks from it.
func NewIndex(srcs []Source, exempt func(*types.Func) bool) *Index {
	idx := &Index{
		funcs:  make(map[*types.Func]*funcSrc),
		sums:   make(map[*types.Func]*Summary),
		exempt: exempt,
	}
	for _, src := range srcs {
		for _, file := range src.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				idx.funcs[fn] = &funcSrc{decl: fd, info: src.Info}
				idx.sums[fn] = &Summary{}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fs := range idx.funcs {
			next := idx.compute(fn, fs)
			if !equalSummary(next, *idx.sums[fn]) {
				*idx.sums[fn] = next
				changed = true
			}
		}
	}
	return idx
}

// Of returns fn's summary: a computed one for indexed source functions,
// the stdlib table entry for known externals, and Pure for everything
// else (the documented trust boundary).
func (idx *Index) Of(fn *types.Func) Summary {
	if fn == nil {
		return Summary{}
	}
	if s, ok := idx.sums[fn]; ok {
		return *s
	}
	return stdlibSummary(fn)
}

func equalSummary(a, b Summary) bool {
	return a.Effects == b.Effects && a.ParamWrites == b.ParamWrites && a.RecvWrite == b.RecvWrite
}

// compute derives fn's summary from its body and the current summaries
// of its callees.
func (idx *Index) compute(fn *types.Func, fs *funcSrc) Summary {
	sum := Summary{Via: map[Effect]string{}}
	sig := fn.Type().(*types.Signature)

	// Parameter and receiver objects, for ParamWrites/RecvWrite.
	paramAt := make(map[*types.Var]int)
	for i := 0; i < sig.Params().Len(); i++ {
		paramAt[sig.Params().At(i)] = i
	}
	var recvObj *types.Var
	if fs.decl.Recv != nil && len(fs.decl.Recv.List) == 1 && len(fs.decl.Recv.List[0].Names) == 1 {
		recvObj, _ = fs.info.Defs[fs.decl.Recv.List[0].Names[0]].(*types.Var)
	}

	addEffect := func(bit Effect, via string) {
		if sum.Effects&bit == 0 {
			sum.Effects |= bit
			if via != "" {
				sum.Via[bit] = via
			}
		}
	}

	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		idx.Visit(fs.info, fn, n, func(ev Event) {
			via := ev.Via
			if ev.Callee != nil {
				via = qualifiedName(ev.Callee)
				if ev.Via != "" && ev.Via != via {
					via += " → " + ev.Via
				}
			}
			if ev.Effect != Pure {
				addEffect(ev.Effect, via)
				return
			}
			// A write: the base decides who is charged. Package-level
			// state is WritesShared; the receiver and the parameters are
			// charged only when the write reaches memory the caller can
			// see; a local charges nothing.
			switch base := ev.Base; {
			case base == nil:
			case isPkgLevel(base):
				if ev.Node != ev.Target {
					via += " writes through its operand"
				}
				addEffect(WritesShared, via)
			case base == recvObj:
				sum.RecvWrite = sum.RecvWrite || ev.Deref || isRefType(base.Type())
			default:
				if i, ok := paramAt[base]; ok && ev.Deref && i < 64 {
					sum.ParamWrites |= 1 << i
				}
			}
		})
		return true
	})
	if len(sum.Via) == 0 {
		sum.Via = nil
	}
	return sum
}

// Visit classifies one AST node of a function or closure body, calling
// yield for every effect it performs and every write it makes. It does
// not descend: the caller walks the body (and decides what to skip) and
// passes each node. self, when non-nil, is the function the body belongs
// to; direct recursion contributes nothing new and is skipped.
func (idx *Index) Visit(info *types.Info, self *types.Func, n ast.Node, yield func(Event)) {
	write := func(target ast.Expr) {
		yield(Event{Node: target, Target: target, Access: Resolve(info, target)})
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		yield(Event{Node: n, Effect: Blocks, Via: "chan send"})
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			yield(Event{Node: n, Effect: Blocks, Via: "chan receive"})
		}
	case *ast.SelectStmt:
		yield(Event{Node: n, Effect: Blocks, Via: "select"})
	case *ast.GoStmt:
		// Spawning is not blocking by itself, but the goroutine's work
		// escapes rollback entirely.
		yield(Event{Node: n, Effect: Blocks, Via: "go statement"})
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			write(lhs)
		}
	case *ast.IncDecStmt:
		write(n.X)
	case *ast.CallExpr:
		idx.visitCall(info, self, n, yield)
	}
}

// visitCall yields what one call site does according to its callee's
// summary.
func (idx *Index) visitCall(info *types.Info, self *types.Func, call *ast.CallExpr, yield func(Event)) {
	through := func(callee *types.Func, via string, operand ast.Expr, recv bool) {
		acc := Resolve(info, operand)
		acc.Deref = true
		yield(Event{Node: call, Via: via, Callee: callee, Target: operand, Recv: recv, Access: acc})
	}

	// Builtins: close is channel lifecycle (equally irreversible inside
	// a speculation); copy writes through its destination argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "close":
				yield(Event{Node: call, Effect: Blocks, Via: "close(chan)"})
			case "copy":
				if len(call.Args) > 0 {
					through(nil, "copy", call.Args[0], false)
				}
			}
			return
		}
	}

	callee := CalleeFunc(info, call)
	if callee == nil || callee == self {
		return // dynamic call (trust boundary) or direct recursion
	}
	if idx.exempt != nil && idx.exempt(callee) {
		return // rollback-aware runtime API: effects stop here
	}
	csum := idx.Of(callee)
	for bit := WritesShared; bit <= NonIdempotent; bit <<= 1 {
		if csum.Effects&bit != 0 {
			yield(Event{Node: call, Callee: callee, Effect: bit, Via: csum.ViaFor(bit)})
		}
	}
	// The callee's parameter writes land in our arguments, and a receiver
	// write in the method operand.
	for i, arg := range call.Args {
		if i < 64 && csum.ParamWrites&(1<<i) != 0 {
			through(callee, "", arg, false)
		}
	}
	if csum.RecvWrite {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			through(callee, "", sel.X, true)
		}
	}
}

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	pkg := v.Pkg()
	return pkg != nil && pkg.Scope().Lookup(v.Name()) == v
}

// isRefType reports whether writes through a value of t alias memory the
// caller can see: pointers, slices, maps, channels.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// qualifiedName renders pkg.Func or pkg.Type.Method for diagnostics.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
