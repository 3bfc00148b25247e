// Package load type-checks this module's packages for the mutls-vet
// analyzers without depending on golang.org/x/tools/go/packages.
//
// Module-internal packages (import paths under the module path from
// go.mod) are parsed and type-checked from source, recursively. Standard
// library imports are satisfied from compiler export data located with
// `go list -export` (the build cache keeps this fast and fully offline).
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("repro/internal/core", or an ad hoc name)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects non-fatal type errors (analysis proceeds on a
	// best-effort package; the driver surfaces them).
	TypeErrors []error
}

// A Loader loads packages of one module.
type Loader struct {
	ModuleDir  string
	ModulePath string

	Fset *token.FileSet

	// IncludeTests adds in-package _test.go files to loaded packages.
	IncludeTests bool

	ctxt    build.Context
	pkgs    map[string]*Package // loaded module packages, by import path
	loading map[string]bool     // cycle detection

	gcImp    types.Importer // export-data importer for non-module imports
	exportMu map[string]string
}

// New builds a loader for the module rooted at dir (go.mod gives the
// module path).
func New(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("load: no module line in %s/go.mod", dir)
	}
	l := &Loader{
		ModuleDir:  dir,
		ModulePath: modPath,
		Fset:       token.NewFileSet(),
		ctxt:       build.Default,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		exportMu:   make(map[string]string),
	}
	// Pure-Go builds only: the simulated runtime has no cgo, and the export
	// data comes from CGO_ENABLED=0 builds.
	l.ctxt.CgoEnabled = false
	l.gcImp = importer.ForCompiler(l.Fset, "gc", l.lookupExport)
	return l, nil
}

// lookupExport locates the compiler export data of a non-module package
// via `go list -export` (cached per path).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exportMu[path]
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = l.ModuleDir
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOFLAGS=-mod=mod")
		out, err := cmd.Output()
		if err != nil {
			msg := err.Error()
			if ee, ok := err.(*exec.ExitError); ok {
				msg = strings.TrimSpace(string(ee.Stderr))
			}
			return nil, fmt.Errorf("go list -export %s: %s", path, msg)
		}
		file = strings.TrimSpace(string(out))
		l.exportMu[path] = file
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %s", path)
	}
	return os.Open(file)
}

// Import implements types.Importer over the module: module-internal paths
// load from source, everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		pkg, err := l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gcImp.Import(path)
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

// loadModulePackage loads (once) the module package with the given import
// path from source.
func (l *Loader) loadModulePackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf(path)
	bp, err := l.ctxt.ImportDir(dir, 0)
	var files []string
	if err != nil {
		if _, noGo := err.(*build.NoGoError); !noGo {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if bp != nil {
		files = append(files, bp.GoFiles...)
		if l.IncludeTests {
			files = append(files, bp.TestGoFiles...)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files in %s", path, dir)
	}
	sort.Strings(files)
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check parses and type-checks one package from the named files in dir.
func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if tpkg == nil {
		return nil, fmt.Errorf("%s: type-check failed: %w", path, err)
	}
	return pkg, nil
}

// Dir loads the single package found in dir (ad hoc, outside the module's
// import namespace — used for analyzer testdata). The package may import
// module packages by their real paths.
func (l *Loader) Dir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	return l.check(filepath.Base(dir), dir, names)
}

// Patterns expands package patterns into loaded packages. Supported
// forms: "./..." (every package under the module), "./x/...", "./x", and
// fully-qualified module import paths.
func (l *Loader) Patterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.walk(l.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			root = strings.TrimPrefix(root, "./")
			if l.isModulePath(root) {
				root = strings.TrimPrefix(strings.TrimPrefix(root, l.ModulePath), "/")
			}
			all, err := l.walk(filepath.Join(l.ModuleDir, filepath.FromSlash(root)))
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		default:
			p := strings.TrimPrefix(pat, "./")
			if !l.isModulePath(p) {
				if p == "" || p == "." {
					p = l.ModulePath
				} else {
					p = l.ModulePath + "/" + strings.TrimSuffix(p, "/")
				}
			}
			add(p)
		}
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.loadModulePackage(p)
		if err != nil {
			// Pattern expansion may name directories with no buildable
			// files (e.g. a root holding only external tests); skip those,
			// fail on anything else.
			if strings.Contains(err.Error(), "no Go files") {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walk lists the import paths of every package directory under root,
// skipping testdata, hidden and underscore directories.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
