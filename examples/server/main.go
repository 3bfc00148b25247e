// A multi-tenant speculation service: the MUTLS runtime behind HTTP.
// Every request leases a runtime from a shared pool (admission-controlled
// against a host CPU budget), runs one benchmark kernel speculatively
// under the request's deadline, verifies the checksum against the
// sequential reference, and reports the speculation activity. The pooled
// runtimes run on the real clock ("cost" in a response is nanoseconds): a
// lease the budget granted CPUs still forks only onto procs that are free
// at that moment, and /stats counts the forks that found none
// (refused_no_proc); -budget decides which leases are labelled degraded.
//
//	go run ./examples/server -addr :8080 &
//	curl 'localhost:8080/run?kernel=mandelbrot&n=64&m=500'
//	curl 'localhost:8080/run?kernel=matmult&n=64'
//	curl 'localhost:8080/stats'
//
// The benchmark load-tests the same service in process (closed loop):
//
//	go run ./benchmark -workload serve-closed
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish (or are unwound
// at their next speculation boundary when their client gives up), queued
// requests are shed, and the pool closes every runtime before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/mutls"
	"repro/mutls/pool"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	runtimes := flag.Int("runtimes", 2, "pooled runtimes (max concurrent tenants)")
	cpus := flag.Int("cpus", 4, "speculative virtual CPUs per runtime")
	budget := flag.Int("budget", 0, "host CPU budget across all leases (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "acquire queue limit (default 4x runtimes; -1 disables queueing)")
	flag.Parse()

	s, err := serve.New(serve.Options{Pool: pool.Options{
		Runtimes:   *runtimes,
		HostBudget: *budget,
		QueueLimit: *queue,
		Runtime:    mutls.Options{CPUs: *cpus},
	}})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	go func() {
		log.Printf("serving speculation on http://%s (kernels: %v)", *addr, s.Kernels())
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("draining…")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	s.Close()
	log.Print("pool closed, bye")
}
