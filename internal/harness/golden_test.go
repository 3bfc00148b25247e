package harness

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_cpus1.golden from this build")

// TestAllOneCPUGolden pins `mutls-bench -cpus 1` byte for byte: every table
// and figure at one speculative CPU under virtual timing, seed 0. On one CPU
// no thread races another for a free CPU, so the output is deterministic
// and any change to it is a change in cost accounting or protocol. Run with
// -update only when such a change is intended.
func TestAllOneCPUGolden(t *testing.T) {
	const golden = "testdata/all_cpus1.golden"
	cfg := DefaultConfig()
	cfg.CPUAxis = []int{1}
	var buf bytes.Buffer
	if err := New(cfg).All(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, golden, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
