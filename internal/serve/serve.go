// Package serve exposes a runtime pool as an HTTP speculation service:
// the multi-tenant deployment shape of the MUTLS runtime. Each request
// leases a pooled runtime, runs one benchmark kernel's TLS version under
// the request's context (deadline and disconnect cancel the run at the
// next speculation boundary), verifies the checksum against the cached
// sequential reference, and reports the speculation activity alongside
// the result. Backpressure is the pool's: an exhausted queue turns into
// 503 Service Unavailable with Retry-After, an exhausted CPU budget into
// a degraded (sequential) but still correct response.
//
// The pooled runtimes run on the real clock whatever the template says: a
// service has no use for the modelled machine, and real timing is what
// switches on the runtime's two fork-admission rules — a fork point whose
// region does not pay for its fork/join stops forking, and no fork is made
// while every proc of the host already runs a thread with work, another
// request's included. A granted lease therefore speculates only onto procs
// that are free at that moment; /stats counts the forks that found none.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/mutls"
	"repro/mutls/pool"
)

// Kernel is one servable workload: a Table II benchmark plus the size
// clamps that keep one request's work bounded.
type Kernel struct {
	Workload *bench.Workload
	// Default is the size used when the request names none; Max clamps
	// request-supplied sizes field-wise (zero Max fields admit only the
	// default for that field).
	Default, Max bench.Size
}

// DefaultKernels is the served allowlist: two loop kernels (in-order
// chained forks) and one tree kernel (mixed model), keyed by URL-safe
// name.
func DefaultKernels() map[string]Kernel {
	return map[string]Kernel{
		"x3p1": {
			Workload: bench.X3P1,
			Default:  bench.Size{N: 20_000},
			Max:      bench.Size{N: 200_000},
		},
		"mandelbrot": {
			Workload: bench.Mandelbrot,
			Default:  bench.Size{N: 32, M: 300},
			Max:      bench.Size{N: 128, M: 2000},
		},
		"matmult": {
			Workload: bench.MatMult,
			Default:  bench.Size{N: 32},
			Max:      bench.Size{N: 64},
		},
	}
}

// Options configures a Server.
type Options struct {
	// Pool configures the runtime pool. The template runtime's heap is
	// sized automatically to the largest admissible kernel request unless
	// Pool.Runtime.HeapBytes is set explicitly, and its Timing is always
	// mutls.Real (see the package comment).
	Pool pool.Options
	// Kernels is the served allowlist; nil selects DefaultKernels.
	Kernels map[string]Kernel
}

// Server is the HTTP façade over a runtime pool. Create with New, mount
// via Handler, and Close when done (drains the pool).
type Server struct {
	pool    *pool.Pool
	kernels map[string]Kernel
	mux     *http.ServeMux

	// faults counts contained request faults: kernel panics surfaced by a
	// run and handler panics caught by the recovery middleware. The server
	// stays up — each fault costs its own request a 500, nothing more —
	// and the count is exposed in /stats.
	faults atomic.Int64

	// pointFaults accumulates contained faults per fork point (key -1 is
	// the non-speculative thread outside any point) across the server's
	// lifetime, points the pay-off guard's counts per point. The runtime's
	// own counters reset when the pool recycles a lease, so each request's
	// are absorbed here before its release; /stats exposes the aggregates as
	// point_faults and points.
	pfMu        sync.Mutex
	pointFaults map[int]int64
	points      map[int]PointCounts

	// handoffParks and handoffSpinHits accumulate the leased runtimes'
	// join-protocol hand-off counters the same way: waits that parked a
	// goroutine against waits a bounded spin covered. A park share that
	// climbs means requests are paying wake-up latency per fork/join.
	// refusedNoProc sums the forks refused because the host had no free
	// proc for a child: speculation the budget granted and the load on the
	// host took back. validations and wordsValidated sum the joins' read-set
	// validations and the words they actually compared against the arena:
	// only words on pages written since their speculation began.
	handoffParks    atomic.Int64
	handoffSpinHits atomic.Int64
	refusedNoProc   atomic.Int64
	validations     atomic.Int64
	wordsValidated  atomic.Int64

	// seqSums caches sequential reference checksums by kernel and size, so
	// verification costs one extra run per distinct request shape, ever.
	seqMu   sync.Mutex
	seqSums map[string]uint64
}

// New builds the pool and the handler.
func New(opts Options) (*Server, error) {
	if opts.Kernels == nil {
		opts.Kernels = DefaultKernels()
	}
	if len(opts.Kernels) == 0 {
		return nil, errors.New("serve: empty kernel allowlist")
	}
	if opts.Pool.Runtime.HeapBytes == 0 {
		heap := 0
		for _, k := range opts.Kernels {
			if b := k.Workload.HeapBytes(clampSize(k.Max, k)); b > heap {
				heap = b
			}
		}
		opts.Pool.Runtime.HeapBytes = heap
	}
	opts.Pool.Runtime.Timing = mutls.Real
	p, err := pool.New(opts.Pool)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool:        p,
		kernels:     opts.Kernels,
		mux:         http.NewServeMux(),
		seqSums:     make(map[string]uint64),
		pointFaults: make(map[int]int64),
		points:      make(map[int]PointCounts),
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the service's HTTP handler: the mux wrapped in the
// panic-recovery middleware, so a fault in any single request — a handler
// bug, a kernel panic that escaped the typed path — answers that request
// with a 500 instead of tearing the process (and every other in-flight
// request) down.
func (s *Server) Handler() http.Handler { return s.recovered(s.mux) }

// recovered is the containment middleware. The recover runs in the
// handler's own goroutine, so in-flight requests on other connections are
// untouched; the faults counter makes the event visible in /stats.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.faults.Add(1)
				writeJSON(w, http.StatusInternalServerError, errResponse{
					Error: fmt.Sprintf("internal fault: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Faults returns the contained-fault count (kernel panics and recovered
// handler panics).
func (s *Server) Faults() int64 { return s.faults.Load() }

// PointCounts is one fork point's pay-off guard activity in /stats' points
// block: its joins, how many of them were cold — their fork woke a parked
// worker — the forks the guard refused, and the probes it let through while
// refusing (what finding out whether forking pays again costs).
type PointCounts struct {
	Joins        int64 `json:"joins"`
	ColdJoins    int64 `json:"cold_joins"`
	RefusedNoPay int64 `json:"refused_no_pay"`
	Probes       int64 `json:"probes"`
}

// absorbStats folds what the leased runtime counted for this request into
// the server's lifetime aggregates: the hand-off counters, the fault records
// — each carries the fork point it was contained at — and the guard's
// counts into the per-point aggregates.
func (s *Server) absorbStats(st *mutls.Summary) {
	s.handoffParks.Add(st.HandoffParks)
	s.handoffSpinHits.Add(st.HandoffSpinHits)
	s.refusedNoProc.Add(st.RefusedNoProc)
	s.validations.Add(int64(st.GBuf.Validations))
	s.wordsValidated.Add(int64(st.GBuf.WordsValidated))
	s.pfMu.Lock()
	defer s.pfMu.Unlock()
	for _, rec := range st.Faults.Records {
		s.pointFaults[rec.Point]++
	}
	for p, ps := range st.PerPoint {
		c := s.points[p]
		c.Joins += int64(ps.Commits + ps.Rollbacks)
		c.ColdJoins += int64(ps.ColdJoins)
		c.RefusedNoPay += int64(ps.RefusedNoPay)
		c.Probes += int64(ps.Probes)
		s.points[p] = c
	}
}

// PointFaults snapshots the per-fork-point contained-fault aggregate,
// keyed by the point id rendered in decimal ("-1" is the non-speculative
// thread outside any fork point) for JSON object compatibility.
func (s *Server) PointFaults() map[string]int64 { return byPoint(s, s.pointFaults) }

// Points snapshots the per-fork-point guard aggregate, keyed like
// PointFaults.
func (s *Server) Points() map[string]PointCounts { return byPoint(s, s.points) }

// byPoint copies one of the server's per-point aggregates under its lock,
// keys rendered in decimal.
func byPoint[V any](s *Server, m map[int]V) map[string]V {
	s.pfMu.Lock()
	defer s.pfMu.Unlock()
	out := make(map[string]V, len(m))
	for p, v := range m {
		out[strconv.Itoa(p)] = v
	}
	return out
}

// Pool exposes the underlying pool (for tests and stats endpoints).
func (s *Server) Pool() *pool.Pool { return s.pool }

// Kernels returns the served kernel names, sorted.
func (s *Server) Kernels() []string {
	names := make([]string, 0, len(s.kernels))
	for name := range s.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close drains and closes the pool; in-flight requests finish first.
func (s *Server) Close() { s.pool.Close() }

// RunResponse is the /run response document.
type RunResponse struct {
	Kernel   string     `json:"kernel"`
	Size     bench.Size `json:"size"`
	Checksum string     `json:"checksum"`
	// Verified is true when the speculative checksum matched the cached
	// sequential reference; a mismatch is reported as HTTP 500 instead.
	Verified bool `json:"verified"`
	// CPUGrant is the lease's speculative virtual-CPU grant; Degraded
	// marks a zero grant (the run executed sequentially).
	CPUGrant int  `json:"cpu_grant"`
	Degraded bool `json:"degraded"`
	// Cost is the run's critical-path cost in nanoseconds (the pool runs on
	// the real clock); WallNS is the handler's wall-clock time.
	Cost      int64 `json:"cost"`
	WallNS    int64 `json:"wall_ns"`
	Commits   int64 `json:"commits"`
	Rollbacks int64 `json:"rollbacks"`
}

type errResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clampSize resolves a requested size against a kernel's default and max.
func clampSize(req bench.Size, k Kernel) bench.Size {
	s := k.Default
	clamp := func(got, max, def int) int {
		if got <= 0 {
			return def
		}
		if max > 0 && got > max {
			return max
		}
		if max == 0 {
			return def
		}
		return got
	}
	s.N = clamp(req.N, k.Max.N, k.Default.N)
	s.M = clamp(req.M, k.Max.M, k.Default.M)
	s.Steps = clamp(req.Steps, k.Max.Steps, k.Default.Steps)
	return s
}

// seqChecksum returns the sequential reference for (name, size), running
// it once on the leased runtime on first sight of that request shape.
func (s *Server) seqChecksum(rt *mutls.Runtime, name string, k Kernel, size bench.Size) (uint64, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", name, size.N, size.M, size.Steps)
	s.seqMu.Lock()
	sum, ok := s.seqSums[key]
	s.seqMu.Unlock()
	if ok {
		return sum, nil
	}
	if _, err := rt.Run(func(t *mutls.Thread) {
		sum = k.Workload.Seq(t, size)
	}); err != nil {
		return 0, err
	}
	rt.Recycle()
	s.seqMu.Lock()
	s.seqSums[key] = sum
	s.seqMu.Unlock()
	return sum, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	name := q.Get("kernel")
	if name == "" {
		name = "x3p1"
	}
	k, ok := s.kernels[name]
	if !ok {
		writeJSON(w, http.StatusNotFound, errResponse{
			Error: fmt.Sprintf("unknown kernel %q (served: %v)", name, s.Kernels()),
		})
		return
	}
	atoi := func(key string) int {
		n, _ := strconv.Atoi(q.Get(key))
		return n
	}
	size := clampSize(bench.Size{N: atoi("n"), M: atoi("m"), Steps: atoi("steps")}, k)

	err := s.pool.Do(r.Context(), func(lease *pool.Lease) error {
		rt := lease.Runtime()
		sum, cost, status, msg := s.runVerified(r.Context(), rt, name, k, size)
		// Summarized once per request, before Do's release recycles the
		// runtime and resets its counters.
		st := rt.Stats()
		s.absorbStats(st)
		if status != http.StatusOK {
			writeJSON(w, status, errResponse{Error: msg})
			return nil
		}
		writeJSON(w, http.StatusOK, RunResponse{
			Kernel:    name,
			Size:      size,
			Checksum:  fmt.Sprintf("%#x", sum),
			Verified:  true,
			CPUGrant:  lease.CPUs(),
			Degraded:  lease.Degraded(),
			Cost:      int64(cost),
			WallNS:    time.Since(start).Nanoseconds(),
			Commits:   int64(st.Commits),
			Rollbacks: int64(st.Rollbacks),
		})
		return nil
	})
	// Only the lease can fail: shed (with a retry hint), closed, or the
	// request's context done before or while queued.
	if err != nil {
		if errors.Is(err, pool.ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
	}
}

// runVerified runs the kernel's TLS version on the leased runtime and
// checks it against the sequential reference. A status other than 200
// comes with the error message to answer the request with.
func (s *Server) runVerified(ctx context.Context, rt *mutls.Runtime, name string, k Kernel, size bench.Size) (sum uint64, cost mutls.Cost, status int, msg string) {
	want, err := s.seqChecksum(rt, name, k, size)
	if err != nil {
		return 0, 0, http.StatusServiceUnavailable, err.Error()
	}
	cost, err = rt.RunCtx(ctx, func(t *mutls.Thread) {
		sum = k.Workload.Spec(t, size, bench.SpecOptions{Model: k.Workload.DefaultModel})
	})
	var kp *mutls.KernelPanic
	switch {
	case errors.As(err, &kp):
		// The kernel itself panicked on the non-speculative thread. The run
		// drained and the lease's release recycles the runtime, so only
		// this request is lost — answer it a 500 and count the fault.
		// (Speculative panics never surface here: they are squashed and
		// re-executed as misspeculation.)
		s.faults.Add(1)
		return 0, 0, http.StatusInternalServerError, fmt.Sprintf("kernel fault: %v", kp.Value)
	case err != nil:
		// Cancelled or timed out mid-run; the release recycles the runtime, so
		// the next tenant is unaffected.
		return 0, 0, http.StatusServiceUnavailable, err.Error()
	case sum != want:
		return 0, 0, http.StatusInternalServerError,
			fmt.Sprintf("checksum mismatch: speculative %#x, sequential %#x", sum, want)
	}
	return sum, cost, http.StatusOK, ""
}

// statsResponse is the /stats document: the pool's admission counters,
// the server's contained-fault count, the per-fork-point breakdowns of
// where those faults were contained (key "-1": outside any point) and of
// the pay-off guard's joins and refusals, and the join protocol's hand-off
// counters, the forks refused for want of a free proc and the read-set
// validations with the words they compared, summed over all served requests.
type statsResponse struct {
	pool.Stats
	Faults          int64                  `json:"faults"`
	PointFaults     map[string]int64       `json:"point_faults"`
	Points          map[string]PointCounts `json:"points"`
	HandoffParks    int64                  `json:"handoff_parks"`
	HandoffSpinHits int64                  `json:"handoff_spin_hits"`
	RefusedNoProc   int64                  `json:"refused_no_proc"`
	Validations     int64                  `json:"validations"`
	WordsValidated  int64                  `json:"words_validated"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:           s.pool.Stats(),
		Faults:          s.faults.Load(),
		PointFaults:     s.PointFaults(),
		Points:          s.Points(),
		HandoffParks:    s.handoffParks.Load(),
		HandoffSpinHits: s.handoffSpinHits.Load(),
		RefusedNoProc:   s.refusedNoProc.Load(),
		Validations:     s.validations.Load(),
		WordsValidated:  s.wordsValidated.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Healthy means the pool still admits tenants. The probe's context is
	// already done, so the pool refuses it before any lease — ErrClosed if
	// closed, the context's error otherwise — and it never takes a runtime
	// or queues behind real traffic.
	ctx, cancel := context.WithCancel(r.Context())
	cancel()
	if err := s.pool.Do(ctx, func(*pool.Lease) error { return nil }); errors.Is(err, pool.ErrClosed) {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
