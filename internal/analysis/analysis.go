// Package analysis is a self-contained reimplementation of the shape of
// golang.org/x/tools/go/analysis, sized for this repository: an Analyzer
// owns a Run function over a type-checked package (a Pass) and reports
// position-anchored Diagnostics carrying a stable diagnostic code.
//
// The x/tools module is deliberately not a dependency — the repo builds
// offline with the standard library only — so the framework keeps the same
// conceptual API (Analyzer, Pass, Diagnostic, an analysistest-style golden
// harness under internal/analysis/analysistest, and a multichecker driver
// in cmd/mutls-vet) without the facts/vetx machinery this suite does not
// need.
//
// The suite runs one way: internal/analysis/driver loads the whole module,
// builds what the analyzers share once — the interprocedural effect index
// (internal/analysis/effects) over every package, and each package's
// speculative-kernel index (internal/analysis/kernel) — and hands both to
// every Pass. The analyzers are kernel.Speccheck and kernel.Pollcheck:
// what a kernel body may touch, and whether its loops reach a check point
// (the runtime's own atomics are left to go test -race and its tests).
//
// Suppression: a diagnostic is silenced by a
//
//	//lint:allow CODE reason...
//
// comment on the reported line or the line directly above it. The reason
// is mandatory: a bare //lint:allow CODE does not suppress, so every
// suppression in the tree documents why the flagged access is safe
// (typically: provably sequential-phase).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/effects"
)

// An Analyzer describes one static check of the mutls speculation
// contract.
type Analyzer struct {
	// Name is the analyzer's identifier (flag name in cmd/mutls-vet).
	Name string
	// Doc is the one-paragraph description printed by mutls-vet -list.
	Doc string
	// Codes lists the diagnostic codes the analyzer can emit, for -list
	// and the README table.
	Codes []string
	// Run executes the check over one package and reports through
	// pass.Report.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver installs suppression
	// filtering and output formatting here.
	Report func(Diagnostic)

	// Effects is the effect index over every package of the batch, so a
	// helper chain that crosses packages resolves.
	Effects *effects.Index
	// Kernels lists the package's speculative kernels, discovered once
	// by the driver (kernel.Find) for every analyzer that asks about them.
	Kernels []Kernel
}

// A Kernel is one closure whose body runs as a speculative region. Every
// listed kernel stands for itself: "captured" means declared outside
// Lit's extent, and a closure declared inside a kernel is part of that
// kernel's body, not a kernel of its own.
type Kernel struct {
	Lit *ast.FuncLit
	// NeedsPoll reports that the region follows the chunk/token protocol
	// (For/ForRange/Reduce*/Pipeline, whose join can commit a stopped
	// chunk's prefix) and its driver does not poll on its behalf, so the
	// loops in the body must reach a check point themselves. Tree.Body
	// regions are joined whole and a ForRange with PollEvery polls between
	// sub-steps; neither needs it.
	NeedsPoll bool
}

// Reportf reports a diagnostic at pos with the given code.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Code:     code,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Code     string // stable code, e.g. "POLL001"
	Message  string
	Analyzer string
}

// Position resolves the diagnostic's file position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Format renders the diagnostic in the file:line:col: CODE: message form.
func (d Diagnostic) Format(fset *token.FileSet) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s (%s)", p.Filename, p.Line, p.Column, d.Code, d.Message, d.Analyzer)
}
