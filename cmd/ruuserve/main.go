// Command ruuserve exposes the simulator as an HTTP/JSON service:
// synchronous single-program simulation, asynchronous sweep jobs over
// the Livermore suite, health, and scheduler/cache metrics — all backed
// by one worker pool and one content-addressed result cache.
//
// Usage:
//
//	ruuserve                         # listen on :8093, GOMAXPROCS workers
//	ruuserve -addr :9000 -workers 8
//	ruuserve -cachesize 0            # default cache; negative disables
//	ruuserve -debug-addr :6060      # pprof on a separate admin listener
//	ruuserve -store-dir /var/ruu    # persistent result store (warm restarts)
//	ruuserve -coordinator http://w1:8093,http://w2:8093
//	                                 # fabric coordinator over two workers
//
// With -store-dir, completed results are written through to a
// disk-backed content-addressed store and survive restarts: a
// redeployed server answers its previous working set from disk.
//
// With -coordinator, this instance routes POST /v1/batch items to the
// listed workers by consistent-hash job key (retrying on a different
// worker on connect/5xx failure, health-checking members in and out of
// the ring); other endpoints still run on the local pool.
//
// Endpoints (see docs/SERVICE.md for the full reference):
//
//	POST   /v1/simulate   run one program (inline asm or built-in kernel)
//	POST   /v1/batch      run many programs, results streamed as NDJSON
//	POST   /v1/sweep      start an async entry-count sweep job
//	GET    /v1/jobs/{id}  poll a sweep job
//	DELETE /v1/jobs/{id}  cancel a sweep job
//	GET    /v1/trace      recent job spans as a Chrome trace document
//	GET    /healthz       liveness, draining state, and build info
//	GET    /metrics       JSON by default; Prometheus text with Accept: text/plain
//
// With -debug-addr set, net/http/pprof is served on that address under
// /debug/pprof/ — an admin-only listener, never the public API mux.
//
// On SIGINT/SIGTERM the server drains gracefully: new POSTs get 503
// with Retry-After, in-flight requests and jobs run to completion,
// then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ruu"
	"ruu/internal/fabric"
	"ruu/internal/server"
	"ruu/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ruuserve: ")
	var (
		addr      = flag.String("addr", ":8093", "listen address")
		debugAddr = flag.String("debug-addr", "", "admin listen address for /debug/pprof/ (empty = disabled)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the simulation scheduler")
		cachesize = flag.Int("cachesize", ruu.DefaultCacheEntries, "result-cache capacity in entries (0 = default, negative = disabled)")
		maxBody   = flag.Int64("max-body", server.DefaultMaxRequestBytes, "request body size limit in bytes")
		timeout   = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request simulation deadline")
		maxJobs   = flag.Int("max-jobs", server.DefaultMaxActiveJobs, "max queued+running sweep jobs before 429 (negative = unlimited)")
		drainFor  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		logJobs   = flag.Bool("log-jobs", false, "log one line per finished scheduler job (debug level)")

		storeDir      = flag.String("store-dir", "", "directory of the persistent result store (empty = memory only)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "persistent-store byte bound (0 = 1 GiB default, negative = unbounded)")
		coordinator   = flag.String("coordinator", "", "comma-separated worker base URLs; non-empty runs this instance as the fabric coordinator")
		healthEvery   = flag.Duration("health-interval", 2*time.Second, "fabric worker health-check period (coordinator mode)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *logJobs {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		stats := st.Stats()
		if stats.Superseded > 0 {
			log.Printf("persistent store at %s was in an older format: moved %d entries to quarantine/ (their results are recomputed on demand)", *storeDir, stats.Superseded)
		}
		log.Printf("persistent store at %s (%d entries warm)", *storeDir, stats.Entries)
	}

	var coord *fabric.Coordinator
	if *coordinator != "" {
		workerURLs := strings.Split(*coordinator, ",")
		for i := range workerURLs {
			workerURLs[i] = strings.TrimSuffix(strings.TrimSpace(workerURLs[i]), "/")
		}
		var err error
		coord, err = fabric.New(fabric.Config{
			Workers:        workerURLs,
			HealthInterval: *healthEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer coord.Close()
		log.Printf("coordinator over %d workers: %s", len(workerURLs), *coordinator)
	}

	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: *workers, CacheEntries: *cachesize, Store: st})
	defer runner.Close()

	srv := server.New(server.Config{
		Runner:          runner,
		MaxRequestBytes: *maxBody,
		RequestTimeout:  *timeout,
		MaxActiveJobs:   *maxJobs,
		Store:           st,
		Fabric:          coord,
		Log:             logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling is never
		// reachable through the public API address.
		admin := http.NewServeMux()
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, admin); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers, cache %d entries)", *addr, *workers, *cachesize)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new work, let in-flight HTTP requests
	// and async sweep jobs finish, then stop the pool.
	log.Printf("draining (budget %v)...", *drainFor)
	srv.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("job drain: %v", err)
	}
	log.Print("drained")
}
