package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

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
	s, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	for _, kernel := range s.Kernels() {
		var r RunResponse
		getJSON(t, ts.URL+"/run?kernel="+kernel, http.StatusOK, &r)
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
			t.Errorf("kernel %s: no speculative commits", kernel)
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

// TestStatsAndHealthz: the observability endpoints reflect the pool.
func TestStatsAndHealthz(t *testing.T) {
	s, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	getJSON(t, ts.URL+"/run", http.StatusOK, nil)

	var st pool.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Acquired == 0 || st.Released != st.Acquired {
		t.Errorf("stats after one request: %+v", st)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	if got := s.Pool().Stats(); got.Released != got.Acquired {
		t.Errorf("healthz probe leaked a lease: %+v", got)
	}
}

// TestStatsCarriesHandoffCounters: the join protocol's hand-off counters
// outlive the per-request recycle — every speculating request waits at
// least once per fork/join, and each wait ends as a spin hit or a park.
func TestStatsCarriesHandoffCounters(t *testing.T) {
	_, ts := testServer(t, pool.Options{Runtimes: 1, HostBudget: 2, Runtime: mutls.Options{CPUs: 2}})
	var r RunResponse
	getJSON(t, ts.URL+"/run?kernel=mandelbrot", http.StatusOK, &r)
	if r.Commits == 0 {
		t.Fatal("request did not speculate")
	}
	var st struct {
		HandoffParks    *int64 `json:"handoff_parks"`
		HandoffSpinHits *int64 `json:"handoff_spin_hits"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.HandoffParks == nil || st.HandoffSpinHits == nil {
		t.Fatal("/stats lacks handoff_parks / handoff_spin_hits")
	}
	if *st.HandoffParks+*st.HandoffSpinHits == 0 {
		t.Errorf("a request with %d commits left no hand-off trace", r.Commits)
	}
}

// TestConcurrentBurst: a burst of mixed-kernel requests against a small
// pool — all responses verified, pool drained afterwards.
func TestConcurrentBurst(t *testing.T) {
	s, ts := testServer(t, pool.Options{
		Runtimes:   2,
		QueueLimit: 64,
		Runtime:    mutls.Options{CPUs: 2},
	})
	kernels := s.Kernels()
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/run?kernel=%s&n=16&m=100", ts.URL, kernels[c%len(kernels)])
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var r RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs <- fmt.Errorf("%s: %v", url, err)
				return
			}
			if resp.StatusCode != http.StatusOK || !r.Verified {
				errs <- fmt.Errorf("%s: status %d verified=%v", url, resp.StatusCode, r.Verified)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Pool().Stats()
	if st.Released != st.Acquired || st.ClaimedCPUs != 0 {
		t.Errorf("pool not drained after burst: %+v", st)
	}
}
