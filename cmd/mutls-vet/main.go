// Command mutls-vet is the multichecker for the mutls speculation
// contract: it runs the internal/analysis suite (speccheck, pollcheck)
// over this module's packages. It always loads the packages it is given
// from source and builds the effect index over all of them at once, so the
// answer does not depend on how it was invoked.
//
//	go run ./cmd/mutls-vet ./...          # whole module (default)
//	go run ./cmd/mutls-vet -list          # analyzer and code reference
//	go run ./cmd/mutls-vet -run pollcheck ./mutls/...
//	go run ./cmd/mutls-vet -json ./...    # machine-readable findings
//	go run ./cmd/mutls-vet -timing ./...  # wall time per analyzer
//
// Exit status: 0 when clean, 1 on findings, 2 on usage or load errors.
// Suppress individual findings with a justified directive:
//
//	//lint:allow CODE reason
//
// on the flagged line or the line above (the reason is mandatory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A finding is one diagnostic as -json prints it; File is relative to
// the module root.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mutls-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag   = fs.Bool("list", false, "print the analyzers and their diagnostic codes, then exit")
		jsonFlag   = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		testsFlag  = fs.Bool("tests", false, "also analyze _test.go files")
		runFlag    = fs.String("run", "", "comma-separated analyzer subset (default: all)")
		dirFlag    = fs.String("C", "", "change to this directory (module root) before loading")
		timingFlag = fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: mutls-vet [flags] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range driver.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s  %s\n", a.Name, strings.Join(a.Codes, ","), a.Doc)
		}
		return 0
	}

	var names []string
	if *runFlag != "" {
		names = strings.Split(*runFlag, ",")
	}
	analyzers, err := driver.ByName(names)
	if err != nil {
		fmt.Fprintln(stderr, "mutls-vet:", err)
		return 2
	}

	root := *dirFlag
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "mutls-vet:", err)
			return 2
		}
	}
	l, err := load.New(root)
	if err != nil {
		fmt.Fprintln(stderr, "mutls-vet:", err)
		return 2
	}
	l.IncludeTests = *testsFlag

	pkgs, err := l.Patterns(fs.Args()) // none: the whole module
	if err != nil {
		fmt.Fprintln(stderr, "mutls-vet:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "mutls-vet: %s: %v\n", pkg.Path, terr)
		}
	}

	diags, timings, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "mutls-vet:", err)
		return 2
	}
	if *timingFlag {
		// Stderr so the breakdown composes with -json on stdout; CI tees
		// it into the job summary.
		for _, tm := range timings {
			fmt.Fprintf(stderr, "mutls-vet: timing %-13s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
	}

	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		p := d.Position(l.Fset)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, finding{rel, p.Line, p.Column, d.Code, d.Message, d.Analyzer})
	}
	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "mutls-vet:", err)
			return 2
		}
	} else {
		for _, f := range out {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s (%s)\n", f.File, f.Line, f.Col, f.Code, f.Message, f.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mutls-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
