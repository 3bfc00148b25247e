package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host gate. On the small shared hosts this repo is developed on, two
// runnable goroutines get either two cores or one, in stretches that last
// seconds to minutes, with no steal time reported (see README.md, "The
// bimodal host"). A parallel speedup measured across such a flip is a coin
// toss, so every block of reps is bracketed by a calibration probe and only
// blocks whose two probes both saw two free cores count.

const (
	// cleanPar is the probe reading from which a block counts as having had
	// two free cores: 2.0 is perfect, 1.0 is fully serialized.
	cleanPar = 1.6
	// minCleanBlocks is the fewest clean blocks a capped run may report
	// from; below it the run reports all blocks and host_ok=false.
	minCleanBlocks = 10
	// capFactor bounds a workload's wall time to capFactor x its clean-time
	// target (45 s for the nominal 15 s).
	capFactor = 3
	// blockTarget is the nominal length of one block of reps.
	blockTarget = 400 * time.Millisecond
	// spinIters makes one spin of the probe loop about 5 ms on the 2.1 GHz
	// hosts this was written on; host.spin_ms reports what it actually is.
	spinIters = 2_600_000
)

var spinSink float64

// spin is the probe's fixed floating-point loop: a dependent multiply-add
// chain that lives in registers, so its time depends on a free core and on
// nothing else.
func spin() float64 {
	x := 1.0001
	for i := 0; i < spinIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// Shape is the host shape a result was measured on. Results from different
// shapes are never compared.
type Shape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Total is the protocol width, min(GOMAXPROCS, 4): kernels run with Total-1
	// speculative CPUs, the load generator with Total clients.
	Total int `json:"total_cpus"`
}

func hostShape() Shape {
	total := runtime.GOMAXPROCS(0)
	if total > 4 {
		total = 4
	}
	return Shape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Total:      total,
	}
}

// Gate takes the calibration probes and decides which blocks count.
type Gate struct {
	// Enabled is false on a 1-CPU shape (nothing can run in parallel, so
	// there is nothing to gate) and in -quick runs.
	Enabled bool

	pars   []float64 // every probe's par reading, in order
	spinMs []float64 // every probe's single-goroutine spin time
}

// Probe takes a bracketing probe and files its reading.
func (g *Gate) Probe() float64 {
	if !g.Enabled {
		return 2
	}
	par, t1 := probe()
	g.pars = append(g.pars, par)
	g.spinMs = append(g.spinMs, ms(t1))
	return par
}

// probe is the calibration probe. A reading below the gate is retried once
// and the higher one counts: the benchmark's own leftovers (a garbage
// collection finishing, server goroutines parking) can spoil one 10 ms
// probe, while a serialized host spoils both.
func probe() (par float64, t1 time.Duration) {
	par, t1 = probeOnce()
	if par < cleanPar {
		if again, t := probeOnce(); again > par {
			par, t1 = again, t
		}
	}
	return par, t1
}

// probeOnce spins one goroutine, then two goroutines each doing the same
// spin, and returns par = 2*T1/T2 (2.0: two free cores; 1.0: serialized)
// with T1.
func probeOnce() (par float64, t1 time.Duration) {
	start := time.Now()
	spinSink += spin()
	t1 = time.Since(start)

	var wg sync.WaitGroup
	var sinks [2]float64
	start = time.Now()
	for i := range sinks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sinks[i] = spin()
		}(i)
	}
	wg.Wait()
	t2 := time.Since(start)
	spinSink += sinks[0] + sinks[1]
	return 2 * float64(t1) / float64(t2), t1
}

// WarmUp probes until three consecutive readings are clean or maxWait has
// passed, and returns the last reading. After a spell of idling or of
// single-threaded work the host serializes the first second or two of
// two-thread load before it grants the second core; this spends that spell
// on probes, which are not filed, instead of on measured blocks.
func (g *Gate) WarmUp(maxWait time.Duration) float64 {
	last := 2.0
	deadline := time.Now().Add(maxWait)
	for streak := 0; g.Enabled && streak < 3 && time.Now().Before(deadline); {
		if last, _ = probe(); last >= cleanPar {
			streak++
		} else {
			streak = 0
		}
	}
	return last
}

// classifyBlocks marks block i clean when the probes on both sides of it —
// pars[i] before, pars[i+1] after — read at least cleanPar. With the gate
// off every block is clean.
func classifyBlocks(pars []float64, blocks int, enabled bool) []bool {
	clean := make([]bool, blocks)
	for i := range clean {
		clean[i] = !enabled ||
			(i+1 < len(pars) && pars[i] >= cleanPar && pars[i+1] >= cleanPar)
	}
	return clean
}

// selectBlocks decides which blocks the metrics are computed over. When the
// run ended by reaching its clean-time target, or has at least
// minCleanBlocks clean blocks anyway, those are the clean ones and the host
// is trusted. Otherwise every block is used, so that numbers are still
// printed, and hostOK is false: the caller must flag the result and exit
// with exitHostNotOK rather than present a serialized number as parallel.
func selectBlocks(clean []bool, reachedTarget bool) (use []bool, hostOK bool) {
	n := 0
	for _, c := range clean {
		if c {
			n++
		}
	}
	if n > 0 && (reachedTarget || n >= minCleanBlocks) {
		return clean, true
	}
	use = make([]bool, len(clean))
	for i := range use {
		use[i] = true
	}
	return use, false
}

// BlockRun is the outcome of a gated measuring loop.
type BlockRun struct {
	Use      []bool  // per block: counted in the metrics
	HostOK   bool    // false: Use is all blocks because too few were clean
	CleanS   float64 // measured seconds inside the counted blocks
	CleanPct float64 // share of blocks that were clean
}

// Measure runs block(i) repeatedly, a probe before the first and after each,
// until the clean blocks add up to want of measured time or capFactor*want
// of wall time has passed. block returns how long its reps took; what it
// measured it keeps itself, indexed by i. Set once to run a single block.
func (g *Gate) Measure(want time.Duration, once bool, block func(i int) time.Duration) BlockRun {
	wallCap := time.Now().Add(capFactor * want)
	first := len(g.pars)
	var durs []time.Duration
	var clean []bool
	sum := func(use []bool) (total time.Duration) {
		for i, u := range use {
			if u {
				total += durs[i]
			}
		}
		return total
	}
	g.Probe()
	for {
		durs = append(durs, block(len(durs)))
		g.Probe()
		clean = classifyBlocks(g.pars[first:], len(durs), g.Enabled)
		if once || sum(clean) >= want || time.Now().After(wallCap) {
			break
		}
	}
	use, ok := selectBlocks(clean, once || sum(clean) >= want)
	nClean := 0
	for _, c := range clean {
		if c {
			nClean++
		}
	}
	return BlockRun{Use: use, HostOK: ok, CleanS: sum(use).Seconds(),
		CleanPct: float64(nClean) / float64(len(clean))}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB;
// 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
