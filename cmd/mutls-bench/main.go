// Command mutls-bench regenerates the tables and figures of the MUTLS paper
// (Cao & Verbrugge, "Mixed Model Universal Software Thread-Level
// Speculation", ICPP 2013), plus the GlobalBuffer backend ablation.
//
// Usage:
//
//	mutls-bench                  # everything, quick sizes, virtual timing
//	mutls-bench -fig 3           # one figure (1, 2 = tables; 3..11 = figures)
//	mutls-bench -fig gbuf        # GlobalBuffer backend ablation table
//	mutls-bench -fig pipeline    # pipeline + float-reduction kernels, models x backends
//	mutls-bench -gbuf chain      # run everything on the chain backend
//	mutls-bench -coverage        # the §V-B parallel coverage numbers
//	mutls-bench -paper           # Table II problem sizes (slow)
//	mutls-bench -cpus 1,2,4,64   # custom CPU axis
//	mutls-bench -real            # wall-clock timing instead of the cost model
//	mutls-bench -chaos -seed 7   # seeded fault-injection sweep
//	mutls-bench -chaos -quick    # CI-sized chaos smoke (three kernels)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/mutls"
)

func main() {
	fig := flag.String("fig", "", `regenerate one table (1,2), figure (3..11) or an ablation ("gbuf", "pipeline"); empty = everything`)
	coverage := flag.Bool("coverage", false, "print the §V-B parallel execution coverage")
	paper := flag.Bool("paper", false, "use the paper's Table II problem sizes")
	cpus := flag.String("cpus", "", "comma-separated CPU axis (default 1,2,4,8,16,24,32,48,64)")
	real := flag.Bool("real", false, "wall-clock timing instead of the virtual cost model")
	seed := flag.Uint64("seed", 0, "seed for the forced-rollback generators and the -chaos plans")
	gbufBackend := flag.String("gbuf", "", fmt.Sprintf("GlobalBuffer backend for all runs (one of %v)", mutls.Backends()))
	chaos := flag.Bool("chaos", false, "run the fault-injection sweep (kernels x models x backends under seeded fault storms)")
	quick := flag.Bool("quick", false, "with -chaos: CI-sized subset")
	flag.Parse()
	if *quick && !*chaos {
		fmt.Fprintln(os.Stderr, "-quick applies only to -chaos")
		os.Exit(2)
	}

	cfg := harness.DefaultConfig()
	cfg.Paper = *paper
	cfg.Seed = *seed
	if *real {
		cfg.Timing = mutls.Real
	}
	if *gbufBackend != "" {
		if !validBackend(*gbufBackend) {
			fmt.Fprintf(os.Stderr, "unknown gbuf backend %q (valid: %v)\n", *gbufBackend, mutls.Backends())
			os.Exit(2)
		}
		cfg.Buffering = mutls.Buffering{Backend: *gbufBackend}
	}
	if *cpus != "" {
		axis, err := parseAxis(*cpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.CPUAxis = axis
	}
	if *real {
		// Wall-clock numbers mean something only while every virtual CPU
		// has a proc to run on.
		procs := runtime.GOMAXPROCS(0)
		clipped := harness.ClipAxis(cfg.CPUAxis, procs)
		if len(clipped) == 0 {
			fmt.Fprintf(os.Stderr, "no point of the CPU axis %v fits GOMAXPROCS=%d\n", cfg.CPUAxis, procs)
			os.Exit(2)
		}
		if len(clipped) != len(cfg.CPUAxis) {
			fmt.Fprintf(os.Stderr, "wall-clock timing: CPU axis %v clipped to %v (GOMAXPROCS=%d)\n", cfg.CPUAxis, clipped, procs)
			cfg.CPUAxis = clipped
		}
	}
	h := harness.New(cfg)

	var err error
	switch {
	case *chaos:
		err = harness.RunChaos(harness.ChaosConfig{Seed: *seed, Quick: *quick}, os.Stdout)
	case *coverage:
		err = h.Coverage(os.Stdout)
	case *fig == "":
		err = h.All(os.Stdout)
	case *fig == "gbuf":
		err = h.FigGBuf(os.Stdout)
	case *fig == "pipeline":
		err = h.FigPipeline(os.Stdout)
	default:
		err = runFigure(h, *fig)
	}
	if err == nil && *real {
		err = h.Payoff(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runFigure dispatches a numeric -fig value.
func runFigure(h *harness.Harness, fig string) error {
	n, err := strconv.Atoi(fig)
	if err != nil {
		return fmt.Errorf("unknown figure %q (valid: 1..11, gbuf, pipeline)", fig)
	}
	switch n {
	case 1:
		harness.Table1(os.Stdout)
		return nil
	case 2:
		h.Table2(os.Stdout)
		return nil
	case 3:
		return h.Fig3(os.Stdout)
	case 4:
		return h.Fig4(os.Stdout)
	case 5:
		return h.Fig5(os.Stdout)
	case 6:
		return h.Fig6(os.Stdout)
	case 7:
		return h.Fig7(os.Stdout)
	case 8:
		return h.Fig8(os.Stdout)
	case 9:
		return h.Fig9(os.Stdout)
	case 10:
		return h.Fig10(os.Stdout)
	case 11:
		return h.Fig11(os.Stdout)
	}
	return fmt.Errorf("unknown figure %d (valid: 1..11, gbuf, pipeline)", n)
}

func validBackend(name string) bool {
	for _, b := range mutls.Backends() {
		if b == name {
			return true
		}
	}
	return false
}

func parseAxis(s string) ([]int, error) {
	var axis []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad CPU count %q", part)
		}
		axis = append(axis, n)
	}
	return axis, nil
}
