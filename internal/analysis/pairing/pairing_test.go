package pairing_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/pairing"
)

func TestLeaseleak(t *testing.T) {
	analysistest.Run(t, pairing.Leaseleak, analysistest.TestData(t, "leaseleak"))
}
