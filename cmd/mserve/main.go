// Command mserve is the prediction-as-a-service daemon: it serves the
// evaluation engine over HTTP/JSON with admission control, per-request
// deadlines, panic isolation, a run memo that evaluates repeated and
// concurrent identical cells once, and graceful drain on SIGINT/SIGTERM.
// See README.md for the API and DESIGN.md §12 for the serving
// architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multiscalar/internal/mserve"
	"multiscalar/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "localhost:8344", "listen address (host:port; :0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		workers  = flag.Int("workers", 0, "evaluation pool workers (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "queued runs beyond the workers before shedding (0 = 4x workers)")
		runTO    = flag.Duration("run-timeout", 0, "per-run watchdog budget (0 = 5m, negative disables)")
		reqTO    = flag.Duration("request-timeout", 0, "default per-request deadline (0 = 30s)")
		maxTO    = flag.Duration("max-timeout", 0, "upper clamp on client-requested deadlines (0 = 2m)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
		maxBody  = flag.Int64("max-body", 0, "request body cap in bytes (0 = 64KiB)")
		cacheMax = flag.Int("cache-max", 0, "run memo capacity in results (0 = 4096)")
		progTick = flag.Duration("progress-interval", 0, "SSE progress event period on /progress (0 = 250ms)")
		sampTick = flag.Duration("sample-interval", 0, "/statusz time-series sampling period (0 = 1s)")

		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot (JSON) here on exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file here on exit")
	)
	flag.Parse()

	// A daemon's metrics are operationally load-bearing: always collect.
	obs.SetEnabled(true)
	outputs, err := obs.CLISetup("mserve", "", *metricsOut, *traceOut, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mserve: %v\n", err)
		return 1
	}
	defer outputs.Flush()

	srv := mserve.New(mserve.Config{
		Workers: *workers, Queue: *queue,
		MaxBody:        *maxBody,
		DefaultTimeout: *reqTO, MaxTimeout: *maxTO, RunTimeout: *runTO,
		CacheCap:         *cacheMax,
		ProgressInterval: *progTick, SampleInterval: *sampTick,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mserve: %v\n", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mserve: writing -addr-file: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "mserve: serving on http://%s/ (POST /eval; /progress /statusz /healthz /readyz /metricz /debug/pprof)\n", bound)

	// First signal drains gracefully; a second forces exit (still
	// flushing obs outputs — Flush is a sync.Once, so the racing deferred
	// flush and this one cannot double-write).
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "mserve: %v — draining (budget %v; signal again to force exit)\n", sig, *drainTO)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "mserve: forced exit")
		outputs.Flush()
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mserve: drain: %v\n", err)
		outputs.Flush()
		return 1
	}
	if err := outputs.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "mserve: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "mserve: drained cleanly")
	return 0
}
