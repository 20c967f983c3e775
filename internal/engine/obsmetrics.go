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

	// Pool metrics (pool.go), recorded unconditionally: sheds and
	// watchdog kills are exceptional-path events an operator needs to
	// see even before turning full observability on, and the memo
	// counters are how a serving front end reports its hit rate.
	obsPoolSheds     = obs.Default().Counter("engine.pool.shed")
	obsPoolTimeouts  = obs.Default().Counter("engine.pool.timeouts")
	obsMemoHits      = obs.Default().Counter("engine.memo.hits")
	obsMemoJoins     = obs.Default().Counter("engine.memo.joins")
	obsMemoMisses    = obs.Default().Counter("engine.memo.misses")
	obsMemoEvictions = obs.Default().Counter("engine.memo.evictions")
)

// doObserved wraps Do with per-run metrics and a span when
// observability is on. worker is the zero-based worker lane; submitted
// is when the run was queued. The pool drives the run's status.
func doObserved(r Run, worker int, submitted time.Time) Result {
	if !obs.On() {
		return Do(r)
	}
	start := time.Now() //detlint:allow det-time (obs-gated duration metric; never rendered deterministically)
	res := Do(r)
	dur := time.Since(start)

	obsRunsTotal.Inc()
	if res.Err != nil {
		obsRunErrors.Inc()
	}
	obsRunSeconds.Observe(dur.Seconds())
	obsBusyNanos.Add(dur.Nanoseconds())
	queueWait := start.Sub(submitted)
	obsQueueWait.Observe(queueWait.Seconds())

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
