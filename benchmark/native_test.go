package main

import (
	"testing"

	"repro/internal/bench"
	"repro/mutls"
)

// Each plain-Go kernel must produce Workload.Seq's checksum bit for bit, at
// the benchmark's size and at CISize (which the -quick run uses).
func TestNativeKernelsMatchSeq(t *testing.T) {
	for _, spec := range kernelSpecs[:3] { // loop-rollback shares loop-compute's kernel
		for _, size := range []bench.Size{spec.size, spec.w.CISize} {
			rt, err := mutls.New(mutls.Options{HeapBytes: spec.w.HeapBytes(size)})
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			_, err = rt.Run(func(th *mutls.Thread) { want = spec.w.Seq(th, size) })
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := spec.native(size); got != want {
				t.Errorf("%s %+v: plain-Go checksum %#x, Workload.Seq %#x", spec.w.Name, size, got, want)
			}
		}
	}
}
