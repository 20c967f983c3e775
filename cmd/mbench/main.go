// Command mbench regenerates the paper's tables and figures, resiliently:
// one experiment's failure (error, panic, or hang) is isolated and the
// batch continues, and SIGINT flushes the in-flight experiment's partial
// tables before exiting.
//
// Usage:
//
//	mbench -exp all                 # every experiment (slow: full traces)
//	mbench -exp fig7                # one experiment
//	mbench -exp table4 -timing 200000
//	mbench -exp fig10 -steps 500000 # truncate traces (quick look)
//	mbench -exp all -workers 8      # shard evaluation grids over 8 workers
//	                                # (output is byte-identical at any count)
//	mbench -exp all -timeout 30m    # per-experiment watchdog
//	mbench -list                    # list experiment names
//
// Observability (internal/obs) is opt-in and off the results path —
// experiment output is byte-identical with it on or off:
//
//	mbench -exp fig7 -http localhost:6060       # pprof + expvar + /metricz
//	mbench -exp all -metrics-out metrics.json   # JSON metrics snapshot on exit
//	mbench -exp all -trace-out trace.json       # Chrome trace-event file
//	                                            # (open in Perfetto / chrome://tracing)
//
// Multi-experiment batches additionally report live progress (done/total
// + ETA) on stderr. The -metrics-out and -trace-out files are flushed
// exactly once on every exit path; a SIGINT mid-batch flushes whatever
// was recorded by then (the trace file is a shorter but valid JSON
// array).
//
// Exit status is 0 only when every selected experiment succeeded.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multiscalar/internal/experiments"
	"multiscalar/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment name or 'all'")
	steps := flag.Int("steps", 0, "truncate workload traces to N dynamic tasks (0 = full)")
	timing := flag.Int("timing", 0, "dynamic-task budget per timing run (0 = default 400000)")
	workers := flag.Int("workers", 0, "evaluation-grid worker pool size (0 = GOMAXPROCS); output is identical at any count")
	timeout := flag.Duration("timeout", 0, "per-experiment watchdog timeout (0 = none)")
	list := flag.Bool("list", false, "list experiments and exit")
	httpAddr := flag.String("http", "", "serve pprof/expvar//metricz on this address (e.g. localhost:6060; '' = off)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit ('' = off)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file here on exit ('' = off)")
	flag.Parse()

	outputs, err := obs.CLISetup("mbench", *httpAddr, *metricsOut, *traceOut, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbench:", err)
		os.Exit(1)
	}

	// With observability on, report the in-flight evaluation (steps,
	// rate, ETA) every few seconds — the run-level complement to the
	// per-experiment done/total progress line.
	stopRuns := make(chan struct{})
	if obs.On() {
		go watchRuns(stopRuns)
	}

	code := 0
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-24s %s\n", r.Name, r.Brief)
		}
	} else {
		code = run(*exp, *steps, *timing, *workers, *timeout)
	}

	close(stopRuns)

	// The single authoritative flush: -list, error returns, interrupts,
	// and normal completion all pass through here, and Outputs.Flush is
	// idempotent in case an exit path inside run already flushed.
	if err := outputs.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "mbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(exp string, steps, timing, workers int, timeout time.Duration) int {
	cfg := experiments.Config{MaxSteps: steps, TimingSteps: timing, Workers: workers}

	// Static analysis gate: verify every workload TFG and predictor
	// configuration before spending hours of simulation on them.
	if err := experiments.Preflight(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mbench:", err)
		return 1
	}

	var runners []experiments.Runner
	if exp == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.ByName(exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbench:", err)
			return 1
		}
		runners = []experiments.Runner{r}
	}

	opts := experiments.RunOptions{Timeout: timeout}
	if len(runners) > 1 {
		// Live batch progress (done/total + ETA) on stderr: a side
		// channel, so stdout stays byte-identical with or without it.
		opts.Progress = obs.NewProgress(os.Stderr, "mbench", len(runners))
	}

	// SIGINT/SIGTERM close the interrupt channel: the in-flight
	// experiment's partial tables are flushed and the summary still
	// prints. RunResilient returns on the same channel, so control falls
	// through to main's exactly-once Flush — the -metrics-out snapshot
	// and -trace-out buffer (a truncated-but-valid JSON array) survive
	// an interrupt too.
	intr := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "mbench: interrupt — flushing partial results")
		signal.Stop(sigs)
		close(intr)
	}()
	opts.Interrupt = intr

	outcomes := experiments.RunResilient(os.Stdout, cfg, runners, opts)
	failed := experiments.Summarize(os.Stdout, outcomes)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mbench: %d of %d experiments failed\n", failed, len(outcomes))
		return 1
	}
	return 0
}

// watchRuns prints a live line for the in-flight run-registry entry
// every few seconds until stop closes. Quiet when nothing is active, so
// short batches produce no extra output.
func watchRuns(stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			active := obs.Runs().Active()
			if len(active) == 0 {
				continue
			}
			a := active[0]
			extra := ""
			if len(active) > 1 {
				extra = fmt.Sprintf(" (+%d more)", len(active)-1)
			}
			if a.Total > 0 {
				fmt.Fprintf(os.Stderr, "mbench: run %s/%s %d/%d steps (%.0f%%, %.0f steps/s, eta %.0fs)%s\n",
					a.Workload, a.Mode, a.Steps, a.Total,
					100*float64(a.Steps)/float64(a.Total), a.StepsPerSecond, a.ETASeconds, extra)
			} else {
				fmt.Fprintf(os.Stderr, "mbench: run %s/%s %d steps (%.0f steps/s)%s\n",
					a.Workload, a.Mode, a.Steps, a.StepsPerSecond, extra)
			}
		}
	}
}
