package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/mutls"
)

// goldenSummary is the part of a Summary the paper's figures are computed
// from, as recorded in testdata/summary_golden.json.
type goldenSummary struct {
	NonSpecRuntime vclock.Cost
	NonSpecLedger  vclock.Ledger
	SpecRuntime    vclock.Cost
	SpecLedger     vclock.Ledger
	Executions     int
	Commits        int
	Rollbacks      int
	PerPoint       map[int]stats.PointStats
	ReadSetPeak    int
	WriteSetPeak   int
}

func goldenOf(s *stats.Summary) goldenSummary {
	return goldenSummary{
		NonSpecRuntime: s.NonSpecRuntime, NonSpecLedger: s.NonSpecLedger,
		SpecRuntime: s.SpecRuntime, SpecLedger: s.SpecLedger,
		Executions: s.Executions, Commits: s.Commits, Rollbacks: s.Rollbacks,
		PerPoint: s.PerPoint, ReadSetPeak: s.ReadSetPeak, WriteSetPeak: s.WriteSetPeak,
	}
}

// TestSummaryMatchesRecordLogGolden compares the Summary of every CI-size
// kernel under each forking model, virtual timing, against the values the
// last commit that still kept a per-execution record log (PR 12) produced.
// Each configuration was run 200 times there under GOMAXPROCS 1-4: the 40
// whose Summary never varied are compared bit for bit (one speculative CPU
// for every kernel; three for the kernels whose schedule does not depend on
// which thread the host runs first). md, bh and matmult stop their
// children at points that depend on real-time polling, so their Summary
// already differed between two runs of that commit; for those the
// accounting identities are checked instead.
func TestSummaryMatchesRecordLogGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/summary_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Kernel string
		Model  string
		CPUs   int
		Stable bool
		Sum    goldenSummary
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s/%d", tc.Kernel, tc.Model, tc.CPUs), func(t *testing.T) {
			t.Parallel()
			w, err := ByName(tc.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ciConfig(w, tc.CPUs)
			if cfg.Model, err = mutls.ParseModel(tc.Model); err != nil {
				t.Fatal(err)
			}
			m, err := MeasureSpec(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenOf(m.Summary)
			if tc.Stable {
				if !reflect.DeepEqual(got, tc.Sum) {
					t.Fatalf("summary differs from the record-log golden:\n got %+v\nwant %+v", got, tc.Sum)
				}
				return
			}
			var perPoint stats.PointStats
			for _, ps := range got.PerPoint {
				perPoint.Commits += ps.Commits
				perPoint.Rollbacks += ps.Rollbacks
				perPoint.Runtime += ps.Runtime
			}
			want := stats.PointStats{Commits: got.Commits, Rollbacks: got.Rollbacks, Runtime: got.SpecRuntime}
			if perPoint != want {
				t.Errorf("per-point sums %+v, totals %+v", perPoint, want)
			}
			if got.Executions != got.Commits+got.Rollbacks {
				t.Errorf("executions %d != %d commits + %d rollbacks", got.Executions, got.Commits, got.Rollbacks)
			}
			if total := got.SpecLedger.Total(); total != got.SpecRuntime {
				t.Errorf("speculative ledger %d does not fill the occupied intervals %d", total, got.SpecRuntime)
			}
			if total := got.NonSpecLedger.Total(); total != got.NonSpecRuntime {
				t.Errorf("critical-path ledger %d does not fill the runtime %d", total, got.NonSpecRuntime)
			}
		})
	}
}
