package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/mutls"
	"repro/mutls/pool"
)

// serveKernels is the request mix of serve-closed: each request is a seeded
// uniform draw from these, at the kernel's default size.
var serveKernels = []string{"x3p1", "mandelbrot", "matmult"}

// serveOptions are the examples/server defaults: two pooled runtimes of four
// virtual CPUs, budget = GOMAXPROCS, default queue, virtual timing.
func serveOptions() serve.Options {
	return serve.Options{Pool: pool.Options{
		Runtimes: 2,
		Runtime:  mutls.Options{CPUs: 4},
	}}
}

// service is an in-process serve.Server behind a loopback http.Server.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
}

func startService() (*service, error) {
	srv, err := serve.New(serveOptions())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine and drains
// the pool.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// newClient returns a client that owns exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// reqSample is one /run request as its client saw it.
type reqSample struct {
	kernel   int
	latMS    float64
	wallNS   int64 // the server's own wall_ns from the response
	degraded bool
	ok       bool // 200, verified, and the checksum the benchmark computed
	shed     bool // 503
}

type serveBlock struct {
	reqs      []reqSample
	seconds   float64 // how long the closed loop ran
	traced    bool
	summaries []*mutls.Summary // rt.Stats() of the traced replays
}

type serveRun struct {
	cfg     Config
	svc     *service
	clients []*http.Client
	rngs    []*rand.Rand
	sizes   []bench.Size
	loads   []*bench.Workload
	want    []uint64 // per serveKernels entry, computed by the benchmark
	tracer  *Tracer
	reqID   atomic.Int64

	blocks    []serveBlock
	attempted int
	failed    int
}

// reference computes, on a runtime of the benchmark's own, the checksum
// every response for kernel i must carry.
func (s *serveRun) reference() error {
	kernels := serve.DefaultKernels()
	s.want = make([]uint64, len(serveKernels))
	s.sizes = make([]bench.Size, len(serveKernels))
	s.loads = make([]*bench.Workload, len(serveKernels))
	for i, name := range serveKernels {
		k := kernels[name]
		s.sizes[i], s.loads[i] = k.Default, k.Workload
		rt, err := mutls.New(mutls.Options{HeapBytes: k.Workload.HeapBytes(k.Default)})
		if err != nil {
			return err
		}
		_, err = rt.Run(func(t *mutls.Thread) { s.want[i] = k.Workload.Seq(t, k.Default) })
		rt.Close()
		if err != nil {
			return fmt.Errorf("reference %s: %w", name, err)
		}
		if s.cfg.CorruptRef {
			s.want[i] ^= 1
		}
	}
	return nil
}

// setUp starts the service, computes the reference checksums and sends one
// warm-up request per kernel (which also fills the server's own checksum
// cache). Everything in here is setup_s.
func (s *serveRun) setUp() error {
	svc, err := startService()
	if err != nil {
		return err
	}
	s.svc = svc
	if err := s.reference(); err != nil {
		return err
	}
	s.clients = s.clients[:0]
	s.rngs = s.rngs[:0]
	for c := 0; c < s.cfg.Shape.Total; c++ {
		s.clients = append(s.clients, newClient())
		s.rngs = append(s.rngs, rand.New(rand.NewSource(int64(s.cfg.Seed)*1_000_003+int64(c))))
	}
	for k := range serveKernels {
		s.count(s.request(s.clients[0], k))
	}
	return nil
}

func (s *serveRun) tearDown() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return s.svc.stop()
}

func (s *serveRun) count(r reqSample) {
	s.attempted++
	if !r.ok {
		s.failed++
	}
}

// request sends one /run and verifies the reply: 200, verified, and the
// checksum the benchmark computed itself for that kernel and size.
func (s *serveRun) request(c *http.Client, kernel int) reqSample {
	r := reqSample{kernel: kernel}
	start := time.Now()
	resp, err := c.Get(s.svc.base + "/run?kernel=" + serveKernels[kernel])
	if err != nil {
		r.latMS = ms(time.Since(start))
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latMS = ms(time.Since(start))
	r.shed = resp.StatusCode == http.StatusServiceUnavailable
	if err != nil || resp.StatusCode != http.StatusOK {
		return r
	}
	var doc serve.RunResponse
	if json.Unmarshal(body, &doc) != nil {
		return r
	}
	r.wallNS, r.degraded = doc.WallNS, doc.Degraded
	r.ok = doc.Verified && doc.Kernel == serveKernels[kernel] &&
		doc.Checksum == fmt.Sprintf("%#x", s.want[kernel])
	return r
}

// replay walks one request's steps in-process, a span around each call into
// a layer: pool.Acquire -> RunCtx(Workload.Spec) -> Stats -> Release -> JSON
// encode. It returns the run's summary and whether the checksum held.
func (s *serveRun) replay(tr *Tracer, parent, req, kernel int) (*mutls.Summary, bool) {
	root := tr.Start("replay", parent, req)
	defer tr.End(root)
	w, size := s.loads[kernel], s.sizes[kernel]

	id := tr.Start("pool.Acquire", root, req)
	lease, err := s.svc.srv.Pool().Acquire(context.Background())
	tr.End(id)
	if err != nil {
		return nil, false
	}
	rt := lease.Runtime()

	var sum uint64
	id = tr.Start("RunCtx", root, req)
	cost, err := rt.RunCtx(context.Background(), func(t *mutls.Thread) {
		sum = w.Spec(t, size, bench.SpecOptions{Model: w.DefaultModel})
	})
	tr.End(id)

	id = tr.Start("Stats", root, req)
	st := rt.Stats()
	tr.End(id)

	id = tr.Start("Release", root, req)
	doc := serve.RunResponse{
		Kernel: serveKernels[kernel], Size: size, Checksum: fmt.Sprintf("%#x", sum),
		Verified: sum == s.want[kernel], CPUGrant: lease.CPUs(), Degraded: lease.Degraded(),
		Cost: int64(cost), Commits: int64(st.Commits), Rollbacks: int64(st.Rollbacks),
	}
	lease.Release()
	tr.End(id)

	id = tr.Start("encode", root, req)
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	encErr := enc.Encode(doc)
	tr.End(id)
	return st, err == nil && encErr == nil && doc.Verified
}

// quickRequests is how many requests each client sends per round of a quick
// block, and quickRounds how many rounds such a block may take to see every
// kernel both degraded and speculated.
const (
	quickRequests = 6
	quickRounds   = 10
)

// block runs every client in a closed loop for about blockTarget. A quick
// block instead runs rounds of a few requests per client until every kernel
// has been answered both on a degraded and on a speculating lease, which the
// block's speedup needs; which lease a request gets depends on whether the
// other client's is out at that moment. Odd blocks of a traced run are
// traced, and the only block of a quick one.
func (s *serveRun) block(i int) time.Duration {
	b := serveBlock{traced: s.tracer != nil && (i%2 == 1 || s.cfg.Quick)}
	var tr *Tracer
	if b.traced {
		tr = s.tracer
	}
	start := time.Now()
	if s.cfg.Quick {
		for n := 0; n < quickRounds; n++ {
			s.round(tr, &b, time.Time{})
			// A traced block's latencies are not metrics; one client never
			// meets a degraded lease.
			if b.traced || len(s.clients) < 2 || leaseRatio(b.reqs) > 0 {
				break
			}
		}
	} else {
		s.round(tr, &b, start.Add(blockTarget))
	}
	d := time.Since(start)
	b.seconds = d.Seconds()
	s.blocks = append(s.blocks, b)
	return d
}

// round has every client send requests, each the next draw of its seeded
// mix, until the deadline — or quickRequests of them when there is none —
// and files them in b.
func (s *serveRun) round(tr *Tracer, b *serveBlock, deadline time.Time) {
	type clientOut struct {
		reqs      []reqSample
		summaries []*mutls.Summary
		replays   int
		badReplay int
	}
	outs := make([]clientOut, len(s.clients))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for n := 0; ; n++ {
				if deadline.IsZero() {
					if n >= quickRequests {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				kernel := s.rngs[c].Intn(len(serveKernels))
				req := int(s.reqID.Add(1))
				root := tr.Start("request", 0, req)
				id := tr.Start("http", root, req)
				o.reqs = append(o.reqs, s.request(s.clients[c], kernel))
				tr.End(id)
				if tr != nil {
					st, ok := s.replay(tr, root, req, kernel)
					o.replays++
					if !ok {
						o.badReplay++
					}
					if st != nil {
						o.summaries = append(o.summaries, st)
					}
				}
				tr.End(root)
			}
		}(c)
	}
	wg.Wait()
	for _, o := range outs {
		for _, r := range o.reqs {
			s.count(r)
		}
		s.attempted += o.replays
		s.failed += o.badReplay
		b.reqs = append(b.reqs, o.reqs...)
		b.summaries = append(b.summaries, o.summaries...)
	}
}

// byLease splits the verified latencies of reqs by kernel, those answered on
// a degraded lease apart from those answered on one that got CPUs.
func byLease(reqs []reqSample) (degraded, speculated [][]float64) {
	degraded = make([][]float64, len(serveKernels))
	speculated = make([][]float64, len(serveKernels))
	for _, r := range reqs {
		switch {
		case !r.ok:
		case r.degraded:
			degraded[r.kernel] = append(degraded[r.kernel], r.latMS)
		default:
			speculated[r.kernel] = append(speculated[r.kernel], r.latMS)
		}
	}
	return degraded, speculated
}

// leaseRatio is the speedup of one block of requests: the mix p50 of the
// degraded ones, which ran sequentially, over that of the speculated ones;
// NaN unless every kernel has samples on both sides.
func leaseRatio(reqs []reqSample) float64 {
	degraded, speculated := byLease(reqs)
	return mixP50(degraded) / mixP50(speculated)
}

// mixP50 is the median latency of a request of the mix: the mean over the
// kernels of each kernel's median. It is NaN while a kernel has no sample,
// because a mix that lacks the 3 ms kernel compares with nothing.
func mixP50(byKernel [][]float64) float64 {
	sum := 0.0
	for _, lats := range byKernel {
		sum += median(lats)
	}
	return sum / float64(len(byKernel))
}

// runServe is the serve-closed workload, untraced (end-to-end metrics) or
// traced (layer metrics).
func runServe(cfg Config, gate *Gate) (*Outcome, error) {
	s := &serveRun{cfg: cfg}
	if cfg.Trace {
		s.tracer = newTracer()
	}
	setups, err := cfg.timeSetUps(s.setUp, s.tearDown)
	if err != nil {
		return nil, err
	}

	gate.WarmUp(hostWarmUp)
	run := gate.Measure(cfg.measureTime(), cfg.Quick, s.block)
	poolStats := s.svc.srv.Pool().Stats()
	if err := s.tearDown(); err != nil {
		return nil, err
	}

	// Latencies by kernel: the mix is three modes a decade apart, and the
	// plain median of such a mix sits on the flank of one of them, where a
	// small shift of the host moves it a lot. mixP50 does not. The latencies
	// that are metrics come from untraced blocks only; in a traced run those
	// alternate with the traced ones.
	all := make([][]float64, len(serveKernels))
	var counted []reqSample
	var flat, traced, speedups []float64
	var sums []*mutls.Summary
	var wallNS, latNS, seconds float64
	shed := 0
	for i, b := range s.blocks {
		if !run.Use[i] {
			continue
		}
		sums = append(sums, b.summaries...)
		for _, r := range b.reqs {
			if r.shed {
				shed++
			}
			if b.traced && r.ok {
				traced = append(traced, r.latMS)
			}
		}
		if b.traced {
			continue
		}
		seconds += b.seconds
		for _, r := range b.reqs {
			if !r.ok {
				continue
			}
			counted = append(counted, r)
			flat = append(flat, r.latMS)
			all[r.kernel] = append(all[r.kernel], r.latMS)
			wallNS += float64(r.wallNS)
			latNS += r.latMS * 1e6
		}
		if ratio := leaseRatio(b.reqs); ratio > 0 {
			speedups = append(speedups, ratio)
		}
	}
	degraded, speculated := byLease(counted)

	out := newOutcome(run, s.attempted, s.failed)
	out.Dists["req_ms"] = summarize(flat)
	for k, name := range serveKernels {
		out.Dists["req_ms."+name] = summarize(all[k])
	}
	out.Dists["setup_s"] = summarize(setups)

	m := out.Metrics
	m["setup_s"] = median(setups)
	m["speedup"] = median(speedups)
	if seconds > 0 {
		m["rps"] = float64(len(flat)) / seconds
	}
	m["req_p50_ms"] = mixP50(all)
	m["req_p95_ms"] = quantile(sortedCopy(flat), 0.95)
	for k, name := range serveKernels {
		m["serve.req_p50_ms."+name] = median(all[k])
	}
	m["serve.req_p99_ms"] = quantile(sortedCopy(flat), 0.99)
	m["serve.spec_req_p50_ms"] = mixP50(speculated)
	m["serve.degraded_req_p50_ms"] = mixP50(degraded)
	if latNS > 0 {
		m["serve.server_wall_share"] = wallNS / latNS
	}
	m["serve.retries"] = 0 // the generator never retries: a shed is a failure
	m["serve.shed"] = float64(shed)
	if poolStats.Acquired > 0 {
		m["pool.degraded_share"] = float64(poolStats.Degraded) / float64(poolStats.Acquired)
	}
	m["pool.rejected"] = float64(poolStats.Rejected)
	m["pool.max_claimed_cpus"] = float64(poolStats.MaxClaimedCPUs)
	if !cfg.Trace {
		return out, nil
	}

	if len(flat) > 0 && len(traced) > 0 {
		m["trace.overhead_share"] = median(traced)/median(flat) - 1
	}
	statsMetrics(m, sums)
	out.Spans = s.tracer.Spans()
	return out, nil
}
