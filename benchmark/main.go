// Command benchmark is the repo's wall-clock benchmark: five workloads that
// each stress a different part of the stack, end-to-end metrics measured
// from outside with every output verified, a ladder of per-layer
// micro-benchmarks from mem to /run, and a host gate that refuses to report
// a parallel number measured on a serialized host. README.md in this
// directory is the manual; BENCHMARK.json at the root of the repo is the
// contract.
//
//	go run ./benchmark -workload loop-compute -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -out a.json      # all five, then the ladder
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// Exit statuses. A host that never gave two free cores is not a wrong
// answer, so it has a status of its own.
const (
	exitOK        = 0
	exitError     = 1 // usage, set-up or I/O failure
	exitIncorrect = 2 // a checksum, a response or a rung's check failed
	exitHostNotOK = 3 // too few clean blocks: the numbers are not parallel numbers
	exitRegressed = 4 // -compare found a breach
)

// hostWarmUp bounds the probing that precedes the first measured block.
const hostWarmUp = 4 * time.Second

// Config is one run's settings.
type Config struct {
	Seed    uint64
	Seconds float64 // clean measured time an untraced run collects
	Trace   bool
	Quick   bool // one block per workload, gate off, CI sizes
	// CorruptRef flips a bit of every reference checksum: the test hook
	// behind "a wrong output makes the run fail". No flag sets it.
	CorruptRef bool
	Shape      Shape
}

// measureTime is the clean time to collect: a traced run repeats the
// workload for a third of its length.
func (c Config) measureTime() time.Duration {
	s := c.Seconds
	if c.Trace {
		s /= 3
	}
	return time.Duration(s * float64(time.Second))
}

// timeSetUps sets a workload up at least five times, and on until the
// set-ups add up to two seconds or there are 25 of them (once, in a quick
// run), tearing all but the last down again, and returns how long each took
// in seconds: setup_s is their median. The last set-up is the one the reps
// run on.
func (c Config) timeSetUps(setUp, tearDown func() error) ([]float64, error) {
	var secs []float64
	for total := 0.0; ; {
		start := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[len(secs)-1]
		if c.Quick || len(secs) == 25 || (len(secs) >= 5 && total >= 2) {
			return secs, nil
		}
		if err := tearDown(); err != nil {
			return nil, err
		}
	}
}

// Outcome is what one workload run, or the ladder, measured.
type Outcome struct {
	Metrics   map[string]float64
	Dists     map[string]Dist
	Spans     []Span
	HostOK    bool
	CleanS    float64
	CleanPct  float64
	Attempted int
	Failed    int
}

func newOutcome(run BlockRun, attempted, failed int) *Outcome {
	return &Outcome{
		Metrics: map[string]float64{}, Dists: map[string]Dist{},
		HostOK: run.HostOK, CleanS: run.CleanS, CleanPct: run.CleanPct,
		Attempted: attempted, Failed: failed,
	}
}

// Metric is a value with its unit, as the result line carries it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload's run as -out stores it and -compare reads it.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Shape     Shape             `json:"host"`
	HostOK    bool              `json:"host_ok"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	CleanS    float64           `json:"clean_s"`
	CleanPct  float64           `json:"clean_share"`
	Metrics   map[string]Metric `json:"metrics"`
	Dists     map[string]Dist   `json:"dists,omitempty"`
}

// resultFile is the -out document.
type resultFile struct {
	Results []Result `json:"results"`
}

// runWorkload runs one named workload (or "ladder") and assembles its
// Result: what the workload measured, plus — in a traced run — the ladder.
func runWorkload(name string, cfg Config, traceOut string) (Result, error) {
	gate := &Gate{Enabled: cfg.Shape.Total >= 2 && !cfg.Quick}
	var out *Outcome
	var err error
	switch {
	case name == "ladder":
		cfg.Trace = true
		out = &Outcome{Metrics: map[string]float64{}, Dists: map[string]Dist{}, HostOK: true, CleanPct: 1}
	case name == "serve-closed":
		out, err = runServe(cfg, gate)
	default:
		spec, ok := kernelByName(name)
		if !ok {
			return Result{}, fmt.Errorf("unknown workload %q", name)
		}
		out, err = runKernel(spec, cfg, gate)
	}
	if err != nil {
		return Result{}, err
	}

	if name != "ladder" {
		// Read before the ladder runs: its heaps are not the workload's.
		out.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	if cfg.Trace {
		lad, err := runLadder(cfg, gate)
		if err != nil {
			return Result{}, err
		}
		for k, v := range lad.Metrics {
			out.Metrics[k] = v
		}
		out.HostOK = out.HostOK && lad.HostOK
		out.Attempted += lad.Attempted
		out.Failed += lad.Failed
		out.Metrics["host.par_x"] = median(gate.pars)
		out.Metrics["host.clean_share"] = out.CleanPct
		out.Metrics["host.spin_ms"] = median(gate.spinMs)
		if len(out.Spans) > 0 {
			// Each layer's self time, by span name.
			self := selfTimes(out.Spans)
			byName := map[string][]float64{}
			for _, s := range out.Spans {
				byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e3)
			}
			for spanName, us := range byName {
				out.Dists["self_us."+spanName] = summarize(us)
			}
			if traceOut != "" {
				doc := traceFile{Workload: name, Seed: cfg.Seed, Shape: cfg.Shape, Spans: out.Spans}
				if err := writeJSONFile(traceOut, doc); err != nil {
					return Result{}, err
				}
			}
		}
	}

	res := Result{
		Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Shape: cfg.Shape, HostOK: out.HostOK, Correct: out.Failed == 0,
		Attempted: out.Attempted, Failed: out.Failed, CleanS: out.CleanS, CleanPct: out.CleanPct,
		Metrics: map[string]Metric{}, Dists: out.Dists,
	}
	if out.Attempted > 0 {
		res.FailShare = float64(out.Failed) / float64(out.Attempted)
	}
	// The bounded metrics belong to the untraced run: a traced one is a third
	// as long and spends half of that on traced reps.
	specs := perLayer
	if !cfg.Trace {
		specs = allMetrics()
	}
	for _, s := range specs {
		// An empty sample (NaN) is a metric that was not measured.
		if v, ok := out.Metrics[s.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.Metrics[s.Name] = Metric{Value: v, Unit: s.Unit}
		}
	}
	if !cfg.Trace && out.Failed == 0 {
		// A bounded metric without a sample must not read as a measurement.
		// (After a wrong output the run fails anyway, and says why.)
		for _, s := range endToEnd {
			if !(res.Metrics[s.Name].Value > 0) {
				return Result{}, fmt.Errorf("%s: no sample for %s on this host shape (%d CPUs)", name, s.Name, cfg.Shape.Total)
			}
		}
	}
	return res, nil
}

// allMetrics lists the bounded metrics, then the layer ones.
func allMetrics() []MetricSpec {
	return append(append([]MetricSpec(nil), endToEnd...), perLayer...)
}

// contractMetrics are the metrics the result line of a run must carry: every
// end-to-end one from an untraced run, every layer one from a traced run.
func contractMetrics(trace bool) []MetricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func kernelByName(name string) (kernelSpec, bool) {
	for _, s := range kernelSpecs {
		if s.name == name {
			return s, true
		}
	}
	return kernelSpec{}, false
}

// printResult writes the human-readable table, then — as the last line —
// the one JSON object the driver reads.
func printResult(w io.Writer, res Result) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  host %d cpus (GOMAXPROCS %d, %s)  host_ok %v  clean %.1fs (%.0f%% of blocks)\n",
		res.Workload, res.Seed, res.Trace, res.Shape.NumCPU, res.Shape.GOMAXPROCS,
		res.Shape.GoVersion, res.HostOK, res.CleanS, 100*res.CleanPct)
	for _, s := range allMetrics() {
		if m, ok := res.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", s.Name, m.Value, s.Unit)
		}
	}
	names := make([]string, 0, len(res.Dists))
	for name := range res.Dists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := res.Dists[name]
		fmt.Fprintf(w, "  dist %-20s n=%-6d median %.4f  q1 %.4f  q3 %.4f", name, d.N, d.Median, d.Q1, d.Q3)
		if d.TopPct > 0 {
			fmt.Fprintf(w, "  p%g %.4f", d.TopPct, d.Top)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  fail_share %g (%d of %d)\n", res.FailShare, res.Failed, res.Attempted)
	// A layer metric this workload does not measure reads 0 on the line.
	metrics := map[string]Metric{}
	for _, s := range contractMetrics(res.Trace) {
		metrics[s.Name] = Metric{Value: res.Metrics[s.Name].Value, Unit: s.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// exitStatus ranks what went wrong: a wrong output outranks a noisy host.
func exitStatus(res Result) int {
	switch {
	case !res.Correct:
		return exitIncorrect
	case !res.HostOK:
		return exitHostNotOK
	}
	return exitOK
}

// runAll runs the five workloads and then the ladder, one process each so
// that no workload inherits another's heap or warmed-up host. With outPath
// set, each child writes its result beside it and the parts are merged.
func runAll(self string, args []string, trace bool, outPath string) ([]Result, int, error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	if !trace {
		names = append(names, "ladder") // a traced run already climbs it
	}
	var all []Result
	status := exitOK
	for _, name := range names {
		childArgs := append([]string{"-workload", name}, args...)
		part := outPath + "." + name
		if outPath != "" {
			childArgs = append(childArgs, "-out", part)
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if exit.ExitCode() > status {
				status = exit.ExitCode()
			}
		} else if err != nil {
			return nil, exitError, err
		}
		if outPath == "" {
			continue
		}
		var f resultFile
		err = readJSONFile(part, &f)
		os.Remove(part)
		if err != nil {
			return nil, exitError, fmt.Errorf("%s left no result: %w", name, err)
		}
		all = append(all, f.Results...)
	}
	return all, status, nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "loop-compute, loop-memory, tree-mixed, loop-rollback, serve-closed or ladder; empty runs all of them, one process each")
	seed := fs.Uint64("seed", 1, "seed of the request sequence, the forced rollbacks and the ladder's addresses")
	seconds := fs.Float64("seconds", 10, "clean measured time to collect per workload")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the layer metrics (and runs the ladder) instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default benchmark/out/trace-<workload>.json)")
	outPath := fs.String("out", "", "also write the results to this file, for -compare")
	quick := fs.Bool("quick", false, "smoke run: one block per workload, gate off, CI sizes")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return exitError
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -help")
		return exitError
	}

	var results []Result
	status := exitOK
	if *workload == "" {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return exitError
		}
		pass := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace)}
		if *quick {
			pass = append(pass, "-quick")
		}
		results, status, err = runAll(self, pass, *trace == 1, *outPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return exitError
		}
	} else {
		cfg := Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick, Shape: hostShape()}
		if *traceOut == "" {
			*traceOut = filepath.Join("benchmark", "out", "trace-"+*workload+".json")
		}
		res, err := runWorkload(*workload, cfg, *traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return exitError
		}
		printResult(stdout, res)
		results, status = []Result{res}, exitStatus(res)
	}
	if *outPath != "" {
		if err := writeJSONFile(*outPath, resultFile{Results: results}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return exitError
		}
	}
	return status
}
