package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func quickConfig(trace bool) Config {
	return Config{Seed: 1, Seconds: 1, Trace: trace, Quick: true, Shape: hostShape()}
}

// resultLine parses the last line printResult writes for res: the one JSON
// object the driver reads.
func resultLine(t *testing.T, res Result) map[string]Metric {
	t.Helper()
	var buf bytes.Buffer
	printResult(&buf, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct{ Metrics map[string]Metric }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return line.Metrics
}

// The -quick smoke: all five workloads, one block each, gate off, checksums
// on. Every end-to-end metric must come out positive (the driver refuses a
// benchmark whose metrics can read 0), the result line must carry exactly
// those, and nothing may fail.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w.Name, quickConfig(false), "")
		if w.Name == "serve-closed" && hostShape().Total < 2 {
			// One client never meets a degraded lease, so there is no
			// speedup to report, and the run must say so, not print 0.
			if err == nil {
				t.Errorf("%s on a 1-CPU shape reported speedup %+v", w.Name, res.Metrics["speedup"])
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || !res.HostOK {
			t.Errorf("%s: correct=%v failed=%d attempted=%d host_ok=%v", w.Name, res.Correct, res.Failed, res.Attempted, res.HostOK)
		}
		line := resultLine(t, res)
		for _, s := range endToEnd {
			if m, ok := line[s.Name]; !ok || !(m.Value > 0) || m.Unit != s.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, s.Name, m, s.Unit)
			}
		}
		if len(line) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the result line, want exactly the %d end-to-end ones", w.Name, len(line), len(endToEnd))
		}
		// The demoted metrics are measured by the workloads they belong to.
		own := []string{"seq_ms", "spec_ms", "abs_speedup", "peak_rss_mb"}
		if w.Name == "serve-closed" {
			own = []string{"rps", "req_p50_ms", "req_p95_ms", "peak_rss_mb"}
		}
		for _, name := range own {
			if !(res.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %+v", w.Name, name, res.Metrics[name])
			}
		}
	}
}

func TestQuickLadder(t *testing.T) {
	res, err := runWorkload("ladder", quickConfig(true), "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("ladder: %d of %d checks failed", res.Failed, res.Attempted)
	}
	if line := resultLine(t, res); len(line) != len(perLayer) {
		t.Errorf("%d metrics on the result line, want exactly the %d layer ones", len(line), len(perLayer))
	}
	// Every rung the ladder owns must have measured something.
	for _, s := range perLayer {
		layer, _, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "mem", "gbuf", "lbuf", "predict", "vclock", "core":
		default:
			continue // workload, pool-after-run, host and trace metrics
		}
		if hostShape().Total < 2 && (strings.Contains(s.Name, "spec_") || strings.Contains(s.Name, "fork_join")) {
			continue // nothing forks on a 1-CPU shape
		}
		if !(res.Metrics[s.Name].Value > 0) {
			t.Errorf("%s = %g", s.Name, res.Metrics[s.Name].Value)
		}
	}
}

// A deliberately wrong reference checksum must show in fail_share, in
// "correct" and in the exit status.
func TestWrongChecksumFails(t *testing.T) {
	for _, name := range []string{"loop-memory", "serve-closed"} {
		cfg := quickConfig(false)
		cfg.CorruptRef = true
		res, err := runWorkload(name, cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.FailShare <= 0 {
			t.Errorf("%s: correct=%v failed=%d fail_share=%g with a corrupted reference", name, res.Correct, res.Failed, res.FailShare)
		}
		if got := exitStatus(res); got != exitIncorrect {
			t.Errorf("%s: exit status %d, want %d", name, got, exitIncorrect)
		}
	}
}

// The traced runs write a span file; in it, the steps of each replayed
// request must account for their parent span, and each kernel triplet's reps
// for theirs.
func TestTraceFileAccountsForParents(t *testing.T) {
	for _, tc := range []struct{ workload, parent string }{
		{"serve-closed", "replay"},
		{"loop-compute", "triplet"},
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		res, err := runWorkload(tc.workload, quickConfig(true), path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run failed %d checks", tc.workload, res.Failed)
		}
		var doc traceFile
		if err := readJSONFile(path, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Workload != tc.workload || len(doc.Spans) == 0 {
			t.Fatalf("%s: trace file has %d spans for %q", tc.workload, len(doc.Spans), doc.Workload)
		}
		self := selfTimes(doc.Spans)
		parents := 0
		for _, s := range doc.Spans {
			if s.Name != tc.parent {
				continue
			}
			parents++
			// What the parent does itself is opening and closing spans.
			if float64(self[s.ID]) > 0.2*float64(s.dur()) {
				t.Errorf("%s: %s span %d keeps %d of %d ns to itself", tc.workload, tc.parent, s.ID, self[s.ID], s.dur())
			}
		}
		if parents == 0 {
			t.Errorf("%s: no %q span in the trace", tc.workload, tc.parent)
		}
		if tc.workload == "loop-compute" && !(res.Metrics["mutls.chunk_gap_us_p50"].Value != 0) {
			t.Errorf("loop-compute: no chunk spans were read")
		}
	}
}

// The last line of standard output is the one JSON object the driver reads,
// with exactly its four keys.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := realMain([]string{"--workload", "tree-mixed", "--seed", "7", "--seconds", "1", "--trace", "0", "-quick"}, &stdout, &stderr)
	if status != exitOK {
		t.Fatalf("exit status %d, stderr %s", status, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	if status := realMain([]string{"-workload", "nonesuch"}, &stdout, &stderr); status != exitError {
		t.Errorf("unknown workload: exit status %d", status)
	}
}
