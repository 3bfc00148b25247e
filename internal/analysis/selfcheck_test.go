package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// requireClean runs the whole suite over the patterns and fails on any
// diagnostic.
func requireClean(t *testing.T, what string, patterns ...string) {
	t.Helper()
	l, err := load.New(analysistest.ModuleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Patterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := driver.Run(pkgs, driver.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", what, d.Format(l.Fset))
	}
}

// TestNoFalsePositiveCorpus runs the whole suite over packages that obey
// the speculation contract — the public API drivers and the serving
// layer — and requires zero diagnostics. A heuristic change that starts
// flagging canonical code fails here before it fails CI.
func TestNoFalsePositiveCorpus(t *testing.T) {
	requireClean(t, "false positive on contract-clean corpus",
		"./mutls", "./mutls/pool", "./internal/serve", "./internal/core", "./internal/mem")
}

// TestWholeModuleClean is the regression gate for poll-free example
// kernels and the interprocedural purity gate: the full module must stay
// free of findings, mirroring the CI `make vet` step. Every kernel
// in the tree — drivers, benches, examples, the serving layer, whether it
// is handed to its driver as a literal or by name — must be effect-free.
func TestWholeModuleClean(t *testing.T) {
	requireClean(t, "module regressed against the speculation contract", "./...")
}

// TestEveryCodeHasGolden requires every diagnostic code the suite can
// emit to be wanted by at least one golden corpus, so no rule can be
// dropped (or lose its last test) silently.
func TestEveryCodeHasGolden(t *testing.T) {
	root := filepath.Join(analysistest.ModuleRoot(t), "internal", "analysis")
	var corpora strings.Builder
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.Contains(p, "testdata") || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		corpora.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range driver.Analyzers() {
		if len(a.Codes) == 0 {
			t.Errorf("analyzer %s lists no codes", a.Name)
		}
		for _, code := range a.Codes {
			found := false
			for _, line := range strings.Split(corpora.String(), "\n") {
				if _, want, ok := strings.Cut(line, "// want "); ok && strings.Contains(want, `"`+code) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s (%s) has no `// want` in any golden corpus", code, a.Name)
			}
		}
	}
}
