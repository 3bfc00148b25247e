package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis/cfg"
)

// build parses src as the body of `func f() { ... }` and builds its CFG.
func build(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg.New(file.Decls[0].(*ast.FuncDecl).Body)
}

// bit maps a single-letter variable name to a fact bit.
func bit(name string) uint32 {
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'z' {
		return 1 << (name[0] - 'a')
	}
	return 0
}

// genKill scans a block for single-letter assignments (gen) and returns
// the gen set.
func gen(b *cfg.Block) uint32 {
	var g uint32
	for _, n := range b.Nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						g |= bit(id.Name)
					}
				}
			}
			return true
		})
	}
	return g
}

func mayProblem() Problem[uint32] {
	return Problem[uint32]{
		Boundary: 0,
		Bottom:   func() uint32 { return 0 },
		Join:     func(a, b uint32) uint32 { return a | b },
		Equal:    func(a, b uint32) bool { return a == b },
		Transfer: func(b *cfg.Block, in uint32) uint32 { return in | gen(b) },
	}
}

func TestForwardMayAssign(t *testing.T) {
	g := build(t, `
		a := 1
		if cond {
			b := 2
			_ = b
		} else {
			c := 3
			_ = c
		}
		d := 4
		_, _ = a, d
	`)
	res := Solve(g, mayProblem())
	at := res.In[g.Exit.Index]
	for _, want := range []string{"a", "b", "c", "d"} {
		if at&bit(want) == 0 {
			t.Errorf("%s may be assigned at exit, fact says no", want)
		}
	}
}

func TestForwardMustAssign(t *testing.T) {
	// Must-analysis: Join is intersection, bottom is the full set (top).
	p := Problem[uint32]{
		Boundary: 0,
		Bottom:   func() uint32 { return ^uint32(0) },
		Join:     func(a, b uint32) uint32 { return a & b },
		Equal:    func(a, b uint32) bool { return a == b },
		Transfer: func(b *cfg.Block, in uint32) uint32 { return in | gen(b) },
	}
	g := build(t, `
		a := 1
		if cond {
			b := 2
			_ = b
		}
		_ = a
	`)
	res := Solve(g, p)
	at := res.In[g.Exit.Index]
	if at&bit("a") == 0 {
		t.Errorf("a is assigned on every path, must-fact says no")
	}
	if at&bit("b") != 0 {
		t.Errorf("b is assigned on only one branch, must-fact says yes")
	}
}

func TestLoopFixpoint(t *testing.T) {
	g := build(t, `
		for i := 0; i < 10; i++ {
			if cond {
				a := 1
				_ = a
			}
		}
		done()
	`)
	res := Solve(g, mayProblem())
	at := res.In[g.Exit.Index]
	if at&bit("a") == 0 {
		t.Errorf("a assigned inside loop must reach exit via the back edge fixpoint")
	}
	if at&bit("i") == 0 {
		t.Errorf("loop init assignment must reach exit")
	}
}

func TestEdgeTransfer(t *testing.T) {
	// EdgeTransfer marks bit z on every true edge: only paths through a
	// taken branch carry it.
	p := mayProblem()
	p.EdgeTransfer = func(b *cfg.Block, succIdx int, out uint32) uint32 {
		if b.Branch != nil && succIdx == 0 {
			return out | bit("z")
		}
		return out
	}
	g := build(t, `
		if cond {
			a := 1
			_ = a
		}
		done()
	`)
	res := Solve(g, p)
	// The then-block saw the true edge.
	var thenIn, exitIn uint32 = 0, res.In[g.Exit.Index]
	for _, b := range g.Blocks {
		if b.Comment() == "if.then" {
			thenIn = res.In[b.Index]
		}
	}
	if thenIn&bit("z") == 0 {
		t.Errorf("true edge must carry the z bit into if.then")
	}
	if exitIn&bit("z") == 0 {
		t.Errorf("z joins into exit via the then path")
	}
}

func TestUnreachableStaysBottom(t *testing.T) {
	g := build(t, `
		return
		a := 1
		_ = a
	`)
	res := Solve(g, mayProblem())
	if res.In[g.Exit.Index]&bit("a") != 0 {
		t.Errorf("assignment after return is unreachable; its fact must not reach exit")
	}
}
