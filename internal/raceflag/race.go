//go:build race

// Package raceflag tells tests whether the race detector is compiled in.
// It slows every memory access down by an order of magnitude, so
// assertions about wall time, CPU time or allocation counts scale their
// limits by it or skip.
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = true
