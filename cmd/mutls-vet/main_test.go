package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const corpus = "./internal/analysis/kernel/testdata/src/specaccess"

func TestRunExitStatus(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean directory", []string{"./internal/analysis/load"}, 0},
		{"list", []string{"-list"}, 0},
		{"corpus with findings", []string{corpus}, 1},
		{"findings outside the selection", []string{"-run", "pollcheck", "./internal/analysis/kernel/testdata/src/specpure"}, 0},
		{"unknown analyzer", []string{"-run", "nosuch", "./internal/analysis/load"}, 2},
		{"deleted analyzer", []string{"-run", "leaseleak", "./internal/analysis/load"}, 2},
		{"unloadable pattern", []string{"./no/such/package"}, 2},
		{"not a module root", []string{"-C", t.TempDir(), "./..."}, 2},
		{"deleted -fast flag", []string{"-fast", "./internal/analysis/load"}, 2},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.want {
			t.Errorf("%s: run(%q) = %d, want %d\nstdout: %s\nstderr: %s", c.name, c.args, got, c.want, &stdout, &stderr)
		}
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("-list exit %d: %s", got, &stderr)
	}
	// Each line is "name codes doc"; the suite is exactly these analyzers
	// with exactly these codes. The lease checker left with pool.Do, and
	// the atomics checker because go test -race and the join-protocol tests'
	// watchdogs catch its bugs by name.
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("-list line %q has no codes", line)
		}
		got = append(got, f[0]+" "+f[1])
	}
	want := []string{
		"speccheck SPEC001,SPEC002,SPEC003,EFFECT001,EFFECT002,EFFECT003,EFFECT004",
		"pollcheck POLL001",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("-list analyzers and codes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, gone := range []string{"leaseleak", "LEASE001", "LEASE002", "atomicmix", "ATOM001", "ATOM002", "ATOM003"} {
		if strings.Contains(stdout.String(), gone) {
			t.Errorf("-list still mentions %s:\n%s", gone, &stdout)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", "-timing", corpus}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit %d, want 1: %s", got, &stderr)
	}
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var findings []finding
	if err := dec.Decode(&findings); err != nil {
		t.Fatalf("stdout is not the documented JSON: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Code == "" || f.Message == "" || f.Analyzer == "" {
			t.Errorf("finding with an empty field: %+v", f)
		}
		if filepath.IsAbs(f.File) || !strings.HasPrefix(filepath.ToSlash(f.File), "internal/analysis/kernel/testdata/") {
			t.Errorf("file %q is not relative to the module root", f.File)
		}
	}
	// -timing goes to stderr, so it composes with -json on stdout.
	if !strings.Contains(stderr.String(), "mutls-vet: timing effects-index") {
		t.Errorf("no timing lines on stderr:\n%s", &stderr)
	}
}
