// Package driver runs the mutls-vet analyzers over loaded packages and
// applies //lint:allow suppressions. It is the shared engine behind the
// cmd/mutls-vet binary and the analysistest harness.
package driver

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
	"repro/internal/analysis/kernel"
	"repro/internal/analysis/load"
)

// Analyzers returns the full mutls-vet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		kernel.Speccheck,
		kernel.Pollcheck,
	}
}

// ByName resolves a selection of analyzer names against the suite; an
// empty selection is the whole suite.
func ByName(names []string) ([]*analysis.Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Timing records the total wall time of one step across the batch: an
// analyzer, or one of the two shared indexes ("effects-index", built once
// over every package, and "kernel-index", built once per package).
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// Run executes the analyzers over each package and returns the
// diagnostics that no //lint:allow directive silences, sorted by
// position, with the wall-time breakdown in execution order.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, []Timing, error) {
	timings := make([]Timing, 2, 2+len(analyzers))
	timings[0].Name, timings[1].Name = "effects-index", "kernel-index"
	for _, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name})
	}

	// One effect index spans the whole batch, so helper chains that cross
	// packages resolve.
	start := time.Now()
	srcs := make([]effects.Source, 0, len(pkgs))
	for _, pkg := range pkgs {
		srcs = append(srcs, effects.Source{Info: pkg.Info, Files: pkg.Files})
	}
	fx := effects.NewIndex(srcs, kernel.Exempt)
	timings[0].Elapsed = time.Since(start)

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		start := time.Now()
		kernels := kernel.Find(pkg.Info, pkg.Files)
		timings[1].Elapsed += time.Since(start)

		sup := analysis.CollectSuppressions(pkg.Fset, pkg.Files)
		for i, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Effects:   fx,
				Kernels:   kernels,
				Report: func(d analysis.Diagnostic) {
					if !sup.Suppressed(pkg.Fset, d.Pos, d.Code) {
						diags = append(diags, d)
					}
				},
			}
			start := time.Now()
			err := a.Run(pass)
			timings[2+i].Elapsed += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	if len(pkgs) > 0 {
		// All packages of one loader share a FileSet, so one sort orders
		// the whole batch.
		fset := pkgs[0].Fset
		sort.Slice(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return diags[i].Code < diags[j].Code
		})
	}
	return diags, timings, nil
}
