package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/mutls"
	"repro/mutls/pool"
)

func testServer(t *testing.T, popts pool.Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Pool: popts})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestRunEndpoint: every served kernel returns a verified speculative
// response with its CPU grant and speculation activity.
func TestRunEndpoint(t *testing.T) {
	// The service runs on the real clock, where a fork needs a free proc:
	// two children beside the request's own thread take three.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2, Timing: mutls.Virtual}})
	lease, err := s.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := lease.Runtime().Options().Timing; got != mutls.Real {
		t.Errorf("pooled runtime's timing is %v: New must ignore a Virtual template", got)
	}
	lease.Release()
	// matmult is asked for at the size with a single fork level: only the
	// non-speculative thread forks there, sub-products 7 and 6 get the two
	// CPUs, and 6 reads no block an earlier sub-product writes, so it
	// commits under every interleaving. At the default n=32 the mixed model
	// lets sub-product 7 claim the second CPU for a sub-task of its own
	// before 6 is forked, and then every speculation of the run conflicts:
	// a correct response with zero commits.
	size := map[string]string{"matmult": "&n=16"}
	for _, kernel := range s.Kernels() {
		var r RunResponse
		getJSON(t, ts.URL+"/run?kernel="+kernel+size[kernel], http.StatusOK, &r)
		if !r.Verified {
			t.Errorf("kernel %s: response not verified", kernel)
		}
		if r.Kernel != kernel || r.Checksum == "" {
			t.Errorf("kernel %s: malformed response %+v", kernel, r)
		}
		if r.CPUGrant != 2 || r.Degraded {
			t.Errorf("kernel %s: grant %d degraded=%v, want 2/false", kernel, r.CPUGrant, r.Degraded)
		}
		if r.Commits == 0 {
			t.Errorf("kernel %s: no speculative commits (%d rollbacks)", kernel, r.Rollbacks)
		}
	}
}

// TestRunSizeClamp: request sizes are clamped to the allowlist maxima, and
// the effective size is echoed.
func TestRunSizeClamp(t *testing.T) {
	_, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	var r RunResponse
	getJSON(t, ts.URL+"/run?kernel=matmult&n=999999", http.StatusOK, &r)
	if r.Size.N != DefaultKernels()["matmult"].Max.N {
		t.Errorf("clamped size %d, want max %d", r.Size.N, DefaultKernels()["matmult"].Max.N)
	}
	// A zero/absent size selects the default.
	getJSON(t, ts.URL+"/run?kernel=matmult", http.StatusOK, &r)
	if r.Size.N != DefaultKernels()["matmult"].Default.N {
		t.Errorf("default size %d, want %d", r.Size.N, DefaultKernels()["matmult"].Default.N)
	}
}

// TestRunUnknownKernel: not-allowlisted kernels are 404, not executed.
func TestRunUnknownKernel(t *testing.T) {
	_, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	var e struct{ Error string }
	getJSON(t, ts.URL+"/run?kernel=tsp", http.StatusNotFound, &e)
	if e.Error == "" {
		t.Error("404 without an error body")
	}
}

// TestOverloadSheds: with no queue and the only runtime leased out, /run
// sheds with 503 + Retry-After instead of queueing.
func TestOverloadSheds(t *testing.T) {
	s, ts := testServer(t, pool.Options{
		Runtimes:   1,
		QueueLimit: pool.NoQueue,
		Runtime:    mutls.Options{CPUs: 2},
	})
	lease, err := s.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if s.Pool().Stats().Rejected == 0 {
		t.Error("shed request not counted as rejected")
	}
}

// TestStatsAndHealthz: the observability endpoints reflect the pool, and a
// health probe never takes a lease: a free runtime is neither leased nor
// recycled by it, and a closed pool reads unhealthy.
func TestStatsAndHealthz(t *testing.T) {
	s, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	getJSON(t, ts.URL+"/run", http.StatusOK, nil)

	var st pool.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Acquired == 0 || st.Released != st.Acquired {
		t.Errorf("stats after one request: %+v", st)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	if got := s.Pool().Stats(); got.Acquired != st.Acquired || got.Released != st.Released || got.Degraded != st.Degraded {
		t.Errorf("healthz probe took a lease: before %+v, after %+v", st, got)
	}
	s.Pool().Close()
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, nil)
}

// TestStatsCarriesHandoffCounters: the join protocol's hand-off counters
// and the guard's per-point joins outlive the per-request recycle — every
// speculating request waits at least once per fork/join, each wait ends as
// a spin hit or a park, each join lands in its point's block, cold or
// warm, with the probes among them, and every commit was validated.
func TestStatsCarriesHandoffCounters(t *testing.T) {
	_, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	var r RunResponse
	getJSON(t, ts.URL+"/run?kernel=mandelbrot", http.StatusOK, &r)
	if r.Commits == 0 {
		t.Fatal("request did not speculate")
	}
	var st struct {
		HandoffParks    *int64                 `json:"handoff_parks"`
		HandoffSpinHits *int64                 `json:"handoff_spin_hits"`
		Points          map[string]PointCounts `json:"points"`
		Validations     int64                  `json:"validations"`
		WordsValidated  *int64                 `json:"words_validated"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Validations < r.Commits || st.WordsValidated == nil {
		t.Errorf("/stats validations %d (words_validated %v) for a request with %d commits", st.Validations, st.WordsValidated, r.Commits)
	}
	if st.HandoffParks == nil || st.HandoffSpinHits == nil {
		t.Fatal("/stats lacks handoff_parks / handoff_spin_hits")
	}
	if *st.HandoffParks+*st.HandoffSpinHits == 0 {
		t.Errorf("a request with %d commits left no hand-off trace", r.Commits)
	}
	joins := int64(0)
	for _, pc := range st.Points {
		if pc.ColdJoins > pc.Joins || pc.Probes > pc.Joins {
			t.Errorf("/stats points %v: more cold joins or probes than joins", st.Points)
		}
		joins += pc.Joins
	}
	if joins < r.Commits+r.Rollbacks {
		t.Errorf("/stats points %v hold %d joins for a request with %d commits and %d rollbacks", st.Points, joins, r.Commits, r.Rollbacks)
	}
	var raw struct {
		Points map[string]map[string]json.Number `json:"points"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &raw)
	for p, keys := range raw.Points {
		if _, ok := keys["probes"]; !ok {
			t.Errorf("/stats points[%s] = %v lacks probes", p, keys)
		}
	}
}

// TestConcurrentBurst: 32 clients of mixed-kernel requests against a small
// pool. With a queue every response is a verified 200; with one runtime and
// no queue every response is a verified 200 or a 503 carrying Retry-After,
// some of each. Either way the pool is drained afterwards and closing the
// server returns every goroutine it started.
func TestConcurrentBurst(t *testing.T) {
	const clients, perClient = 32, 4
	targets := []string{
		"/run?kernel=x3p1&n=2000",
		"/run?kernel=mandelbrot&n=16&m=100",
		"/run?kernel=matmult&n=16",
	}
	cases := []struct {
		name string
		pool pool.Options
		shed bool
	}{
		{"queued", pool.Options{Runtimes: 2, QueueLimit: 64, Runtime: mutls.Options{CPUs: 2}}, false},
		{"noqueue", pool.Options{Runtimes: 1, QueueLimit: pool.NoQueue, Runtime: mutls.Options{CPUs: 2}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s, err := New(Options{Pool: tc.pool})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())

			var ok, shed atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, clients*perClient)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						url := ts.URL + targets[(c+i)%len(targets)]
						resp, err := http.Get(url)
						if err != nil {
							errs <- err
							continue
						}
						var r RunResponse
						err = json.NewDecoder(resp.Body).Decode(&r)
						resp.Body.Close()
						switch {
						case err != nil:
							errs <- fmt.Errorf("%s: %v", url, err)
						case resp.StatusCode == http.StatusOK && r.Verified:
							ok.Add(1)
						case tc.shed && resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
							shed.Add(1)
						default:
							errs <- fmt.Errorf("%s: status %d verified=%v Retry-After=%q",
								url, resp.StatusCode, r.Verified, resp.Header.Get("Retry-After"))
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if ok.Load() == 0 {
				t.Error("no request succeeded")
			}
			if tc.shed && shed.Load() == 0 {
				t.Errorf("no request was shed despite %d clients on a one-runtime pool without a queue", clients)
			}
			st := s.Pool().Stats()
			if st.Released != st.Acquired || st.ClaimedCPUs != 0 || st.Waiting != 0 {
				t.Errorf("pool not drained after burst: %+v", st)
			}

			ts.Close()
			s.Close()
			// Workers exit asynchronously once the pool has closed them.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("goroutine leak across the server lifecycle: %d before New, %d after Close", before, now)
			}
		})
	}
}
