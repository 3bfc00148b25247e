// Package analysistest is a golden-file harness for the mutls-vet
// analyzers, shaped after golang.org/x/tools/go/analysis/analysistest:
// a testdata package annotates the lines it expects diagnostics on with
//
//	code() // want "POLL001"
//	code() // want "POLL001: no reachable poll" "SPEC001"
//
// Each quoted string is a regular expression matched against the
// diagnostic rendered as "CODE: message". Every diagnostic must match a
// want on its line and every want must be matched — so the suite fails
// both on false positives and (if an analyzer is disabled or broken) on
// missed findings. Suppressed diagnostics (//lint:allow with a reason)
// are filtered before matching, which lets testdata assert suppression
// behavior by carrying a directive and no want.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// ModuleRoot locates the repository root (four levels above this file).
func ModuleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(file))))
}

// TestData returns the analyzer's testdata package directory:
// <caller dir>/testdata/src/<pkg>.
func TestData(t *testing.T, pkg string) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "testdata", "src", pkg)
}

// Run loads the testdata package in dir, applies the analyzer, and
// matches diagnostics against the package's want annotations.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	l, err := load.New(ModuleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("testdata must type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}

	diags, _, err := driver.Run([]*load.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		rendered := d.Code + ": " + d.Message
		if !wants.match(p, rendered) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, rendered)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no diagnostic matching %q (analyzer disabled or check regressed?)", filepath.Base(w.file), w.line, w.re.String())
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ all []*want }

var wantRE = regexp.MustCompile(`want\s+(.*)$`)

// collectWants parses `// want "re" ["re"...]` comments.
func collectWants(pkg *load.Package) (*wantSet, error) {
	ws := &wantSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantRE.FindStringSubmatch(text)
				if m == nil || !strings.HasPrefix(text, "want") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					ws.all = append(ws.all, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return ws, nil
}

// splitQuoted extracts the double-quoted segments of s.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}

func (ws *wantSet) match(p token.Position, rendered string) bool {
	for _, w := range ws.all {
		if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(rendered) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.all {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}
