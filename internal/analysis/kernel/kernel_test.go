package kernel_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/kernel"
	"repro/internal/analysis/load"
)

func TestSpecaccess(t *testing.T) {
	analysistest.Run(t, kernel.Speccheck, analysistest.TestData(t, "specaccess"))
}

func TestSpecpure(t *testing.T) {
	analysistest.Run(t, kernel.Speccheck, analysistest.TestData(t, "specpure"))
}

func TestPollcheck(t *testing.T) {
	analysistest.Run(t, kernel.Pollcheck, analysistest.TestData(t, "pollcheck"))
}

// TestDiscoveryRunsOncePerPackage holds the driver to one kernel
// discovery per package however many analyzers consume the index.
func TestDiscoveryRunsOncePerPackage(t *testing.T) {
	l, err := load.New(analysistest.ModuleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*load.Package
	for _, corpus := range []string{"specaccess", "specpure", "pollcheck"} {
		pkg, err := l.Dir(analysistest.TestData(t, corpus))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	before := kernel.Finds()
	if _, _, err := driver.Run(pkgs, driver.Analyzers()); err != nil {
		t.Fatal(err)
	}
	if got := kernel.Finds() - before; got != int64(len(pkgs)) {
		t.Errorf("kernel.Find ran %d times over %d packages with %d analyzers; want once per package", got, len(pkgs), len(driver.Analyzers()))
	}
}
