package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
	"multiscalar/internal/stats"
)

// The resilient runner executes a batch of experiments the way a
// multi-hour mbench run needs: one experiment's failure (error, panic, or
// hang) is isolated and recorded instead of aborting the batch, and an
// interrupt flushes whatever partial output the in-flight experiment
// produced.

// ErrInterrupted marks experiments that did not run because the batch was
// interrupted (SIGINT or the Interrupt channel closing).
var ErrInterrupted = errors.New("experiments: interrupted")

// TimeoutError marks an experiment killed by the per-experiment watchdog.
type TimeoutError struct {
	// Name is the experiment that timed out.
	Name string
	// Limit is the watchdog budget it exceeded.
	Limit time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("experiments: %s exceeded the %v watchdog timeout", e.Name, e.Limit)
}

// Outcome is one experiment's result in a resilient batch run.
type Outcome struct {
	// Name is the experiment name.
	Name string
	// Err is nil on success; otherwise the structured failure (a
	// *fault.PanicError for recovered panics, a *TimeoutError for
	// watchdog kills, ErrInterrupted for experiments skipped by an
	// interrupt, or the runner's own error).
	Err error
	// Duration is how long the experiment ran (zero when interrupted
	// before it started).
	Duration time.Duration
}

// RunOptions tunes a resilient batch run.
type RunOptions struct {
	// Timeout is the per-experiment watchdog budget (0 disables the
	// watchdog). A timed-out experiment's goroutine is abandoned — its
	// output is withheld and the batch moves on.
	Timeout time.Duration
	// Interrupt, when non-nil, aborts the batch once closed: the
	// in-flight experiment's partial output is flushed with a marker,
	// and remaining experiments are recorded as ErrInterrupted.
	Interrupt <-chan struct{}
	// Progress, when non-nil, receives one Step per finished experiment
	// — the live completed/total + ETA
	// reporter mbench wires to stderr for multi-experiment batches. It
	// writes to its own side channel, never to w, so batch output stays
	// byte-identical with or without it.
	Progress *obs.Progress
}

// syncBuffer is a mutex-guarded buffer an in-flight experiment writes to,
// so the watchdog/interrupt paths can snapshot partial output without
// racing the still-running goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Write implements io.Writer.
func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// snapshot copies the current contents.
func (b *syncBuffer) snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// safeRun invokes one experiment, converting a panic into a structured
// error so a bug in one runner cannot take down the batch.
func safeRun(r Runner, w io.Writer, cfg Config) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &fault.PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	return r.Run(w, cfg)
}

// interrupted reports whether the interrupt channel has closed.
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// RunResilient executes the runners in order with failure isolation,
// watchdog timeouts, and interrupt-graceful partial flushing. It always returns one Outcome per runner; the caller renders
// the summary (see Summarize) and chooses the exit status.
func RunResilient(w io.Writer, cfg Config, runners []Runner, opts RunOptions) []Outcome {
	outcomes := make([]Outcome, 0, len(runners))
	for _, r := range runners {
		if interrupted(opts.Interrupt) {
			outcomes = append(outcomes, Outcome{Name: r.Name, Err: ErrInterrupted})
			continue
		}

		buf := &syncBuffer{}
		done := make(chan error, 1)
		start := time.Now() //detlint:allow det-time (watchdog deadline for hung runners; not rendered)
		go func(r Runner) {
			done <- safeRun(r, buf, cfg)
		}(r)

		var watchdog <-chan time.Time
		var timer *time.Timer
		if opts.Timeout > 0 {
			timer = time.NewTimer(opts.Timeout)
			watchdog = timer.C
		}
		var intr <-chan struct{} = opts.Interrupt

		out := Outcome{Name: r.Name}
		select {
		case err := <-done:
			out.Err = err
			out.Duration = time.Since(start)
			io.WriteString(w, buf.snapshot())
			if err == nil {
				fmt.Fprintf(w, "[%s done in %v]\n\n", r.Name, out.Duration.Round(time.Millisecond))
			} else {
				fmt.Fprintf(w, "[%s FAILED after %v: %v]\n\n", r.Name, out.Duration.Round(time.Millisecond), err)
			}
		case <-watchdog:
			out.Err = &TimeoutError{Name: r.Name, Limit: opts.Timeout}
			out.Duration = time.Since(start)
			// The goroutine is abandoned (Go cannot kill it); its partial
			// output is flushed with a marker so the hang is diagnosable.
			io.WriteString(w, buf.snapshot())
			fmt.Fprintf(w, "[%s TIMED OUT after %v; partial output above]\n\n", r.Name, opts.Timeout)
		case <-intr:
			out.Err = ErrInterrupted
			out.Duration = time.Since(start)
			io.WriteString(w, buf.snapshot())
			fmt.Fprintf(w, "[%s interrupted after %v; partial output above]\n\n",
				r.Name, out.Duration.Round(time.Millisecond))
		}
		if timer != nil {
			timer.Stop()
		}
		// Observability: one experiment-phase span on lane 0 (engine run
		// spans occupy the worker lanes) and one progress step. Both are
		// side channels; w saw only the experiment's own output above.
		if obs.On() {
			if tr := obs.ActiveTracer(); tr != nil {
				args := map[string]any{"experiment": r.Name}
				if out.Err != nil {
					args["error"] = firstLine(out.Err.Error())
				}
				tr.Complete("experiment "+r.Name, "experiment", 0, start, out.Duration, args)
			}
		}
		opts.Progress.Step(r.Name, out.Duration)
		outcomes = append(outcomes, out)
	}
	return outcomes
}

// Summarize renders the end-of-run summary table and returns the number
// of failed experiments.
func Summarize(w io.Writer, outcomes []Outcome) int {
	tbl := stats.New("Run summary", "experiment", "status", "duration")
	failed := 0
	for _, o := range outcomes {
		status := "ok"
		switch {
		case errors.Is(o.Err, ErrInterrupted):
			status = "interrupted"
			failed++
		case o.Err != nil:
			status = firstLine(o.Err.Error())
			failed++
		}
		dur := "-"
		if o.Duration > 0 {
			dur = o.Duration.Round(time.Millisecond).String()
		}
		tbl.AddRow(o.Name, status, dur)
	}
	tbl.WriteText(w)
	return failed
}

// firstLine truncates multi-line error text (panic stacks) for the
// summary table.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}
