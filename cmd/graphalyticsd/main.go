// Command graphalyticsd is the benchmark-as-a-service daemon: a
// long-running HTTP server that accepts declarative BenchSpecs, runs
// them through the Spec → Plan → Run pipeline under multi-tenant
// fair-share scheduling, and streams progress (SSE) and results (JSONL)
// back to clients.
//
// Usage:
//
//	graphalyticsd -addr :8077 -cache-dir /var/cache/ga -out results.jsonl \
//	    -tenant alice:key-a:2:32 -tenant bob:key-b
//
//	curl -d @spec.json http://localhost:8077/v1/runs
//	curl http://localhost:8077/v1/runs/r000001/events     # SSE
//	curl http://localhost:8077/v1/runs/r000001/results    # JSONL
//
// or, with the bundled client:
//
//	graphalytics submit -server http://localhost:8077 -spec spec.json -watch
//
// All tenants share one session and therefore one graph store: a
// dataset one tenant materialized is warm for everyone. SIGINT/SIGTERM
// triggers a graceful drain: no new submissions, queued runs are marked
// canceled, running deployments get -drain-timeout to finish before
// their contexts are canceled, and the -out stream is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphalytics"
	"graphalytics/internal/core"
	"graphalytics/internal/service"
)

// Connection timeouts. A client that trickles its request headers, or
// leaves a keep-alive connection idle, cannot hold a connection and its
// goroutine forever. There is no whole-response WriteTimeout: an events or
// results stream lasts as long as its run, and a client that stops reading
// one is cut off per batch by the service's own write deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// tenantFlags collects repeated -tenant flags.
type tenantFlags []service.Tenant

func (f *tenantFlags) String() string { return fmt.Sprint(len(*f), " tenants") }

func (f *tenantFlags) Set(s string) error {
	t, err := service.ParseTenant(s)
	if err != nil {
		return err
	}
	*f = append(*f, t)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphalyticsd:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("graphalyticsd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	cacheDir := fs.String("cache-dir", "", "persist dataset snapshots under this directory (shared across tenants)")
	out := fs.String("out", "", "append every recorded result to this JSONL file as runs progress")
	slots := fs.Int("slots", service.DefaultSlots, "concurrently running runs across all tenants")
	quantum := fs.Int("quantum", service.DefaultQuantum, "fair-share quantum in job units (smaller interleaves tenants more finely)")
	parallel := fs.Int("parallel", 1, "worker-pool parallelism inside each run (1 preserves timing fidelity)")
	sla := fs.Duration("sla", time.Minute, "default per-job makespan budget (specs and jobs can override)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long running deployments may finish after a shutdown signal")
	warm := fs.Bool("warm", false, "materialize the whole catalog into the store before serving")
	archiveDir := fs.String("archive-dir", "", "seal every completed run into the content-addressed archive under this directory")
	mmap := fs.Bool("mmap", false, "with -cache-dir: serve warm snapshots as mmap-backed graphs (zero-copy, OS-reclaimable pages)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "tenant as name[:key[:maxRunning[:maxQueued]]]; repeatable (default: one open tenant \"public\")")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "graphalyticsd: ", log.LstdFlags)

	opts := []core.Option{
		core.WithSLA(*sla),
		core.WithParallelism(*parallel),
	}
	if *mmap && *cacheDir == "" {
		return fmt.Errorf("-mmap requires -cache-dir (mapping needs on-disk snapshots)")
	}
	if *cacheDir != "" {
		opts = append(opts, core.WithCacheDir(*cacheDir))
		if *mmap {
			opts = append(opts, core.WithMappedSnapshots(true))
		}
	}
	var outFile *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		outFile = f
		// Sink delivery is serialized session-wide (recordMu), so one
		// JSONL sink can take results from every concurrent run.
		opts = append(opts, core.WithSink(core.NewJSONLSink(f)))
	}

	svc, err := service.New(service.Config{
		Tenants:        tenants,
		Slots:          *slots,
		Quantum:        *quantum,
		SessionOptions: opts,
		ArchiveDir:     *archiveDir,
	})
	if err != nil {
		return err
	}

	if *warm {
		start := time.Now()
		if err := graphalytics.WarmCatalog(context.Background(), svc.Session().GraphStore(), *parallel, nil); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		logger.Printf("catalog warmed in %v", time.Since(start).Round(time.Millisecond))
	}

	server := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on http://%s (slots=%d quantum=%d tenants=%d)",
			*addr, *slots, *quantum, max(1, len(tenants)))
		if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: draining running deployments (up to %v)", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the scheduler. SSE
	// streams of running runs end when their runs finalize.
	shutdownErr := server.Shutdown(dctx)
	if err := svc.Shutdown(dctx); err != nil {
		return err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
		logger.Printf("results appended to %s", outFile.Name())
	}
	logger.Printf("drained")
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}
