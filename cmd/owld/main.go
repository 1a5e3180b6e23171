// Command owld is the Owl leak-detection daemon: it batch-processes
// detection jobs over HTTP, recording traces on a bounded worker pool and
// caching results. See internal/service for the API surface.
//
// Usage:
//
//	owld -addr :8080 -workers 8 -job-workers 2
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"program":"libgpucrypto/aes128","fixed_runs":40,"random_runs":40}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"program":"libgpucrypto/aes128","evidence":{"mode":"both","early_stop":{"enabled":true}}}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"program":"workloads/shmem-leaky","evidence":{"mode":"both","channels":["adcfg","cost"]}}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/report
//	curl -s localhost:8080/v1/metrics
//
// The API is versioned under /v1/ only. The pre-versioning unversioned
// paths, deprecated for one release, are gone: they answer 404 with a
// Link header naming the /v1 successor.
//
// SIGINT/SIGTERM drains gracefully: submissions are rejected, running
// jobs finish (bounded by -drain-timeout), then the server exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"owl/internal/cluster"
	olog "owl/internal/obs/log"
	"owl/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owld:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owld", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		workers      = fs.Int("workers", 0, "recording worker pool size (0 = GOMAXPROCS)")
		jobWorkers   = fs.Int("job-workers", 1, "jobs detected concurrently")
		queueDepth   = fs.Int("queue", 64, "job queue depth")
		cacheSize    = fs.Int("cache", 128, "result cache capacity (reports)")
		jobTimeout   = fs.Duration("job-timeout", 10*time.Minute, "default per-job timeout (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for running jobs")
		clusterHosts = fs.String("cluster", "", "comma-separated owlworker hosts; detection jobs record on the fleet instead of the local pool (mitigate jobs stay local)")
		logFormat    = fs.String("log-format", "text", "log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := olog.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	logger := olog.New(os.Stderr, format, slog.String("component", "owld"))

	var fleet *cluster.Fleet
	if *clusterHosts != "" {
		var err error
		fleet, err = cluster.NewFleet(strings.Split(*clusterHosts, ","), cluster.Options{})
		if err != nil {
			return err
		}
	}

	pool := service.NewPool(*workers)
	mgr, err := service.NewManager(service.Config{
		Pool:           pool,
		JobWorkers:     *jobWorkers,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		DefaultTimeout: *jobTimeout,
		Fleet:          fleet,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	mgr.Start()
	if fleet != nil {
		logger.Info("detection jobs record on cluster",
			slog.String("workers", strings.Join(fleet.Workers(), ", ")))
	}

	srv := &http.Server{Addr: *addr, Handler: service.NewServer(mgr)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info(fmt.Sprintf("listening on %s (%d recording workers, %d job workers)",
			*addr, pool.Workers(), *jobWorkers))
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", slog.Duration("budget", *drainTimeout))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete; remaining jobs canceled", slog.String("error", err.Error()))
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	return srv.Shutdown(shutCtx)
}
