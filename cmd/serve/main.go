// Command serve runs the anonymization/attack service: a long-running
// HTTP/JSON API over internal/service that keeps datasets and their
// engines warm, caches releases content-addressed with LRU eviction,
// deduplicates concurrent identical requests (singleflight), runs
// async anonymize jobs on a bounded worker pool, and — with -data-dir
// — writes every artifact through to a durable on-disk tier so a
// restarted server serves previous work without recomputing it.
//
// Usage:
//
//	serve [-addr :8080] [-workers W] [-releases 128] [-datasets 8]
//	      [-data-dir DIR] [-job-workers 2] [-job-queue 128]
//	      [-schema spec.json[,spec2.json...]]
//	      [-debug-addr ADDR] [-trace-ring 128] [-slow-trace-ms 0]
//	      [-no-tracing]
//
// -debug-addr starts a second listener with the diagnostics surface:
// GET /debug/traces (recent request/job traces with per-stage spans,
// ?min_ms= and ?endpoint= filters), GET /debug/traces/{id} (one
// retained trace by request id) and the standard net/http/pprof
// endpoints under /debug/pprof/. Keeping it on its own address means
// profiling and trace inspection never share a port with production
// traffic.
//
// Endpoints: POST/GET /v1/schemas; POST /v1/datasets, /v1/anonymize
// (sync, or "async": true → 202 + job), /v1/attack, /v1/risk — all
// three accept ?explain=1 (or "explain": true) for an opt-in
// predicted-vs-actual cost block; GET /v1/releases/{id}, /v1/jobs/{id},
// /v1/estimate (price a request against the calibrated cost model
// without running it), /healthz, /metrics (JSON; ?format=prom serves
// the OpenMetrics exposition). The schema
// registry boots with the built-in Adult spec plus everything
// persisted under -data-dir; -schema preloads additional declarative
// specs (see examples/schemas/). See DESIGN.md ("Schema registry",
// "Service layer") for the endpoint table, store semantics, the
// persistence layout, and the job lifecycle; cmd/loadgen drives a
// running instance under load (sync or -async).
//
// On SIGINT/SIGTERM the server stops listening, then drains: queued
// async jobs finish (bounded by the shutdown timeout) before exit, so
// a deploy never abandons accepted work — and with -data-dir whatever
// did finish is already on disk.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/schema"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	releases := flag.Int("releases", 128, "release store capacity (LRU entries)")
	datasets := flag.Int("datasets", 8, "dataset store capacity (LRU entries)")
	dataDir := flag.String("data-dir", "", "durable store directory (empty = memory only)")
	jobWorkers := flag.Int("job-workers", 2, "async anonymize worker pool size")
	jobQueue := flag.Int("job-queue", 128, "async anonymize queue depth")
	debugAddr := flag.String("debug-addr", "", "diagnostics listen address for /debug/traces and /debug/pprof (empty = disabled)")
	traceRing := flag.Int("trace-ring", 128, "recent traces retained for /debug/traces")
	slowTraceMS := flag.Int("slow-trace-ms", 0, "default /debug/traces min_ms filter")
	noTracing := flag.Bool("no-tracing", false, "disable request tracing and the stage ledger")
	schemas := cli.Schema("comma-separated JSON dataset specs to preload at boot")
	workers := cli.Workers()
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := service.New(service.Config{
		Workers:         *workers,
		ReleaseCap:      *releases,
		DatasetCap:      *datasets,
		DataDir:         *dataDir,
		JobWorkers:      *jobWorkers,
		JobQueueDepth:   *jobQueue,
		DisableTracing:  *noTracing,
		TraceRing:       *traceRing,
		SlowTraceMillis: *slowTraceMS,
		Logger:          logger,
	})
	if err != nil {
		cli.Fatal("serve", err)
	}
	if *dataDir != "" {
		ns, nd, nr := srv.PersistedArtifacts()
		logger.Info("durable store opened", "dir", *dataDir,
			"schemas", ns, "datasets", nd, "releases", nr)
	}
	if *schemas != "" {
		for _, path := range strings.Split(*schemas, ",") {
			spec, err := schema.Load(strings.TrimSpace(path))
			if err != nil {
				cli.Fatal("serve", err)
			}
			id, existed, err := srv.RegisterSchema(spec)
			if err != nil {
				cli.Fatal("serve", err)
			}
			logger.Info("schema preloaded", "name", spec.Name, "id", id, "existed", existed)
		}
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:ignore nakedgo single listener goroutine feeding the shutdown select below; there is no fan-out to bound and net/http owns its lifetime
	go func() { errc <- hs.ListenAndServe() }()
	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		//lint:ignore nakedgo single diagnostics listener goroutine; it reports fatal errors through the same shutdown channel and net/http owns its lifetime
		go func() { errc <- ds.ListenAndServe() }()
		logger.Info("diagnostics listening", "addr", *debugAddr,
			"traces", "/debug/traces", "pprof", "/debug/pprof/")
	}
	logger.Info("listening", "addr", *addr, "workers", *workers,
		"releases", *releases, "datasets", *datasets, "job_workers", *jobWorkers,
		"tracing", !*noTracing)

	select {
	case err := <-errc:
		cli.Fatal("serve", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ds != nil {
		ds.Close()
	}
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Fatal("serve", err)
	}
	// The listener is closed; finish the async jobs already accepted.
	if err := srv.Drain(shutdownCtx); err != nil {
		logger.Warn("job drain incomplete", "err", err)
	}
	logger.Info("drained")
}
