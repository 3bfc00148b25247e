package effects

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// index type-checks src as one package and builds its effect index.
func index(t *testing.T, src string) (*Index, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return NewIndex([]Source{{Info: info, Files: []*ast.File{file}}}, nil), pkg
}

// of returns the summary of the package-level function named name.
func of(t *testing.T, idx *Index, pkg *types.Package, name string) Summary {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return idx.Of(fn)
}

const directSrc = `package p

var shared int

func pure(a, b int) int { return a + b }

func readsGlobal() int { return shared }

func writesGlobal() { shared = 1 }

func sends(ch chan int) { ch <- 1 }

func receives(ch chan int) int { return <-ch }

func panics(x int) {
	if x < 0 {
		panic("neg")
	}
}

func writesParam(dst []int64, k int64) {
	for i := range dst {
		dst[i] *= k
	}
}

func writesPtr(p *int) { *p = 7 }

func localOnly() {
	type s struct{ f int }
	var v s
	v.f = 1
	arr := [4]int{}
	arr[0] = 2
	_ = v
	_ = arr
}

func valueParam(v struct{ f int }) { v.f = 1 }
`

func TestDirectEffects(t *testing.T) {
	idx, pkg := index(t, directSrc)
	cases := []struct {
		fn   string
		want Effect
	}{
		{"pure", Pure},
		{"readsGlobal", Pure},
		{"writesGlobal", WritesShared},
		{"sends", Blocks},
		{"receives", Blocks},
		{"panics", Pure},
		{"localOnly", Pure},
		{"valueParam", Pure},
	}
	for _, c := range cases {
		got := of(t, idx, pkg, c.fn).Effects
		if got != c.want {
			t.Errorf("%s: effects = %v, want %v", c.fn, got, c.want)
		}
	}
	if s := of(t, idx, pkg, "writesParam"); s.ParamWrites != 1 {
		t.Errorf("writesParam: ParamWrites = %b, want bit 0", s.ParamWrites)
	}
	if s := of(t, idx, pkg, "writesPtr"); s.ParamWrites != 1 {
		t.Errorf("writesPtr: ParamWrites = %b, want bit 0", s.ParamWrites)
	}
	if s := of(t, idx, pkg, "valueParam"); s.ParamWrites != 0 {
		t.Errorf("valueParam: value-struct field write must stay private, got %b", s.ParamWrites)
	}
}

const interSrc = `package p

var counter int

func leaf(dst []int, v int) { dst[0] = v }

func mid(xs []int) { leaf(xs, 1) }

func top(buf []int) { mid(buf) }

func bump() { counter++ }

func callsBump() { bump() }

func viaReceiver() {}

type box struct{ n int }

func (b *box) set(v int) { b.n = v }

func pokes(b *box) { b.set(3) }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func sendsDeep(ch chan int) { sender(ch) }

func sender(ch chan int) { ch <- 1 }
`

func TestInterprocedural(t *testing.T) {
	idx, pkg := index(t, interSrc)

	// Param writes propagate through two call layers with argument
	// position mapping.
	for _, fn := range []string{"leaf", "mid", "top"} {
		if s := of(t, idx, pkg, fn); s.ParamWrites&1 == 0 {
			t.Errorf("%s: write through slice param must propagate, got %b", fn, s.ParamWrites)
		}
	}
	// Global writes propagate.
	if s := of(t, idx, pkg, "callsBump"); s.Effects&WritesShared == 0 {
		t.Errorf("callsBump: WritesShared must propagate from bump, got %v", s.Effects)
	}
	// Receiver writes map through the method operand: pokes(b) mutates
	// its pointer param via b.set.
	if s := of(t, idx, pkg, "pokes"); s.ParamWrites&1 == 0 {
		t.Errorf("pokes: b.set receiver write must charge the param, got %b", s.ParamWrites)
	}
	// Mutual recursion converges and stays pure.
	if s := of(t, idx, pkg, "even"); s.Effects != Pure {
		t.Errorf("even: mutual recursion must converge pure, got %v", s.Effects)
	}
	// Blocking propagates with a via chain.
	s := of(t, idx, pkg, "sendsDeep")
	if s.Effects&Blocks == 0 {
		t.Fatalf("sendsDeep: Blocks must propagate, got %v", s.Effects)
	}
	if via := s.ViaFor(Blocks); !strings.Contains(via, "sender") {
		t.Errorf("sendsDeep: via chain should name sender, got %q", via)
	}
}

func TestStdlibTable(t *testing.T) {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	mkFn := func(path, pkgname, name string) *types.Func {
		return types.NewFunc(token.NoPos, types.NewPackage(path, pkgname), name, sig)
	}
	cases := []struct {
		path, name string
		want       Effect
	}{
		{"os", "WriteFile", DoesIO},
		{"os", "Getenv", Pure},
		{"syscall", "Write", DoesIO},
		{"fmt", "Sprintf", Pure},
		{"fmt", "Println", DoesIO},
		{"fmt", "Fprintf", DoesIO},
		{"sync", "Lock", Blocks},
		{"time", "Sleep", Blocks},
		{"time", "Now", NonIdempotent},
		{"time", "Duration", Pure},
		{"math/rand", "Intn", NonIdempotent},
		{"strings", "ToUpper", Pure},
	}
	for _, c := range cases {
		fn := mkFn(c.path, c.path[strings.LastIndex(c.path, "/")+1:], c.name)
		got := stdlibSummary(fn).Effects
		if got != c.want {
			t.Errorf("%s.%s: effects = %v, want %v", c.path, c.name, got, c.want)
		}
	}
	// Atomic mutators write through their pointer argument.
	if s := stdlibSummary(mkFn("sync/atomic", "atomic", "AddInt64")); s.ParamWrites != 1 {
		t.Errorf("atomic.AddInt64: ParamWrites = %b, want bit 0", s.ParamWrites)
	}
	if s := stdlibSummary(mkFn("sync/atomic", "atomic", "LoadInt64")); s.Effects != Pure || s.ParamWrites != 0 {
		t.Errorf("atomic.LoadInt64 must be pure")
	}
}

func TestEffectString(t *testing.T) {
	if Pure.String() != "pure" {
		t.Errorf("Pure.String() = %q", Pure.String())
	}
	s := (DoesIO | Blocks).String()
	if !strings.Contains(s, "does-io") || !strings.Contains(s, "blocks") {
		t.Errorf("String() = %q", s)
	}
}

func TestWithExempt(t *testing.T) {
	const src = `package p

func runtimePoll(ch chan int) { ch <- 1 }

func helper(ch chan int) { runtimePoll(ch) }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	exempt := func(fn *types.Func) bool { return fn.Name() == "runtimePoll" }
	idx := NewIndex([]Source{{Info: info, Files: []*ast.File{file}}}, exempt)

	// The exempt callee itself still carries its direct effects...
	if s := of(t, idx, pkg, "runtimePoll"); s.Effects&Blocks == 0 {
		t.Errorf("runtimePoll: direct send must still be summarized, got %v", s.Effects)
	}
	// ...but they stop at the exemption boundary instead of propagating.
	if s := of(t, idx, pkg, "helper"); s.Effects != Pure {
		t.Errorf("helper: effects of an exempt callee must not propagate, got %v", s.Effects)
	}
}

func TestUnknownFuncIsPure(t *testing.T) {
	idx, _ := index(t, "package p\nfunc f() {}\n")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	ext := types.NewFunc(token.NoPos, types.NewPackage("example.com/x", "x"), "Mystery", sig)
	if s := idx.Of(ext); s.Effects != Pure {
		t.Errorf("unknown external must default to pure, got %v", s.Effects)
	}
	if s := idx.Of(nil); s.Effects != Pure {
		t.Errorf("nil func must be pure")
	}
}

func TestResolve(t *testing.T) {
	const src = `package p

type node struct {
	val  int
	next *node
	vals []int
	arr  [4]int
}

var global node

func f(p *node, v node, s []int, m map[string]int) {
	var local node
	_ = []any{
		local.val,      // 0
		local.arr[1],   // 1
		p.val,          // 2
		p.next.vals[0], // 3
		*p,             // 4
		&v.val,         // 5
		s[1:][0],       // 6
		m["k"],         // 7
		global.val,     // 8
		(v).arr,        // 9
		f,              // 10
	}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var exprs []ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok && len(cl.Elts) > 1 {
			exprs = cl.Elts
		}
		return true
	})
	want := []struct {
		base, field string
		deref       bool
	}{
		{"local", "val", false},
		{"local", "arr", false},
		{"p", "val", true},
		{"p", "vals", true},
		{"p", "", true},
		{"v", "val", false},
		{"s", "", true},
		{"m", "", true},
		{"global", "val", false},
		{"v", "arr", false},
		{"", "", false},
	}
	if len(exprs) != len(want) {
		t.Fatalf("found %d expressions, want %d", len(exprs), len(want))
	}
	name := func(v *types.Var) string {
		if v == nil {
			return ""
		}
		return v.Name()
	}
	for i, w := range want {
		got := Resolve(info, exprs[i])
		if name(got.Base) != w.base || name(got.Field) != w.field || got.Deref != w.deref {
			t.Errorf("expr %d: Resolve = {Base: %q, Field: %q, Deref: %v}, want {%q, %q, %v}",
				i, name(got.Base), name(got.Field), got.Deref, w.base, w.field, w.deref)
		}
	}
}
