package engine

import (
	"time"

	"multiscalar/internal/obs"
)

// Engine-layer metrics. Registered unconditionally at init (cheap), but
// only written behind obs.On() guards — the scheduler's hot path pays a
// single atomic load when observability is off. None of these feed back
// into results: the byte-invariance test in internal/experiments holds
// rendered output identical with observability on or off.
var (
	obsRunsTotal   = obs.Default().Counter("engine.run.total")
	obsRunErrors   = obs.Default().Counter("engine.run.errors")
	obsRunSeconds  = obs.Default().Histogram("engine.run.seconds", nil)
	obsQueueWait   = obs.Default().Histogram("engine.run.queue_wait_seconds", nil)
	obsBusyNanos   = obs.Default().Counter("engine.worker.busy_nanos")
	obsGrids       = obs.Default().Counter("engine.grid.total")
	obsGridRuns    = obs.Default().Counter("engine.grid.runs")
	obsGridSecs    = obs.Default().Histogram("engine.grid.seconds", nil)
	obsGridWorkers = obs.Default().Gauge("engine.grid.workers")

	// Pool metrics (the serving-side scheduler in pool.go). Sheds and
	// watchdog kills are exceptional-path events, recorded
	// unconditionally — they are precisely what an operator needs to see
	// even before turning full observability on.
	obsPoolSheds    = obs.Default().Counter("engine.pool.shed")
	obsPoolTimeouts = obs.Default().Counter("engine.pool.timeouts")
)

// doObserved wraps Do with per-run metrics and span tracing. worker is
// the zero-based worker lane; submitted is the queue-submit time (zero
// when the run never waited in a queue, i.e. the sequential path).
func doObserved(r Run, worker int, submitted time.Time) Result {
	if !obs.On() && r.Status == nil {
		return Do(r)
	}
	// Telemetry is on or the caller attached a status: keep the run's
	// progress record live. A caller-less observed run still registers
	// itself so /runz and /statusz see CLI and grid traffic too — but an
	// auto-created status is scrubbed from the echoed Result.Run so
	// observed and unobserved results stay deeply equal.
	auto := r.Status == nil
	if auto {
		r.Status = obs.Runs().Start(r.Label, r.Workload, r.Spec, r.Mode.String())
	}
	r.Status.SetPhase(obs.PhaseRunning)
	if !obs.On() {
		res := Do(r)
		finishStatus(r.Status, res.Err)
		return res
	}
	start := time.Now() //detlint:allow det-time (obs-gated duration metric; never rendered deterministically)
	res := Do(r)
	dur := time.Since(start)
	finishStatus(r.Status, res.Err)
	if auto {
		res.Run.Status = nil
	}

	obsRunsTotal.Inc()
	if res.Err != nil {
		obsRunErrors.Inc()
	}
	obsRunSeconds.Observe(dur.Seconds())
	obsBusyNanos.Add(dur.Nanoseconds())
	var queueWait time.Duration
	if !submitted.IsZero() {
		queueWait = start.Sub(submitted)
		obsQueueWait.Observe(queueWait.Seconds())
	}

	if tr := obs.ActiveTracer(); tr != nil {
		args := map[string]any{
			"workload": r.Workload,
			"spec":     r.Spec,
			"mode":     res.Mode.String(),
			"worker":   worker,
			"run_id":   r.Status.ID(),
		}
		if r.Label != "" {
			args["label"] = r.Label
		}
		if queueWait > 0 {
			args["queue_wait_us"] = queueWait.Microseconds()
		}
		if res.Err != nil {
			args["error"] = res.Err.Error()
		}
		// Lane 0 is reserved for experiment phases; workers start at 1.
		tr.Complete("run "+r.Workload, "engine", worker+1, start, dur, args)
	}
	return res
}
