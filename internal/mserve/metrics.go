package mserve

import "multiscalar/internal/obs"

// Server metrics. mserve always enables observability (a daemon's
// metrics are operationally load-bearing, unlike a batch CLI's), so
// these record unconditionally. None of them feed into response bodies:
// a response is rendered purely from the engine.Result, which is what
// keeps server answers byte-identical to a direct mbench/engine run of
// the same cell.
var (
	// HTTP edge: every /eval request lands in exactly one of these.
	obsReqTotal    = obs.Default().Counter("mserve.http.requests")
	obsReqOK       = obs.Default().Counter("mserve.http.ok")
	obsReqBad      = obs.Default().Counter("mserve.http.bad_request")
	obsReqShed     = obs.Default().Counter("mserve.http.shed")
	obsReqDeadline = obs.Default().Counter("mserve.http.deadline")
	obsReqFailed   = obs.Default().Counter("mserve.http.failed")
	obsReqDrain    = obs.Default().Counter("mserve.http.draining")

	// Result cache + singleflight: hits served without touching the
	// pool, misses that became flight leaders, and waiters coalesced
	// onto an existing flight.
	obsCacheHits      = obs.Default().Counter("mserve.cache.hits")
	obsCacheMisses    = obs.Default().Counter("mserve.cache.misses")
	obsCacheEvictions = obs.Default().Counter("mserve.cache.evictions")
	obsCoalesced      = obs.Default().Counter("mserve.flight.coalesced")

	// End-to-end request latency (admission wait + evaluation + render)
	// and the run-level panic counter behind the 500 path.
	obsReqSeconds = obs.Default().Histogram("mserve.request.seconds", nil)
	obsRunPanics  = obs.Default().Counter("mserve.run.panics")

	// Queue depth snapshot (admitted, unfinished pool work).
	obsQueueDepth = obs.Default().Gauge("mserve.queue.depth")

	// Progress streaming: SSE streams opened and streams that ended by
	// client disconnect rather than run completion. A disconnect must
	// never cancel the shared run (the watcher holds no flight
	// reference), so streams - disconnects ≈ streams that saw "done".
	obsProgressStreams     = obs.Default().Counter("mserve.progress.streams")
	obsProgressDisconnects = obs.Default().Counter("mserve.progress.disconnects")
)
