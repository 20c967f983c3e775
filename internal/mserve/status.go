package mserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"multiscalar/internal/engine"
	"multiscalar/internal/obs"
)

// Live-telemetry surfaces: GET /statusz (one JSON snapshot of what the
// daemon is doing right now) and GET /progress (a per-cell SSE stream
// over an in-flight evaluation). Both are pure readers of the side
// channels the engine already maintains — the run registry, the metric
// time series, the pool and its memo — and never touch the results path,
// so response bodies stay byte-identical with or without watchers.

// StatuszResponse is the GET /statusz body.
type StatuszResponse struct {
	// Pool is the evaluation pool's occupancy.
	Pool PoolStatus `json:"pool"`
	// Cache is the pool's run memo: its occupancy and traffic.
	Cache engine.MemoStats `json:"cache"`
	// Runs is the run registry: in-flight cells with live progress plus
	// the recently finished ring.
	Runs RunsStatus `json:"runs"`
	// Series is the tail of the metric time-series ring.
	Series obs.SeriesSnapshot `json:"series"`
}

// PoolStatus is the pool section of /statusz.
type PoolStatus struct {
	Workers  int `json:"workers"`
	Capacity int `json:"capacity"`
	Pending  int `json:"pending"`
}

// RunsStatus is the run-registry section of /statusz.
type RunsStatus struct {
	Active []obs.RunStatusSnapshot `json:"active"`
	Recent []obs.RunStatusSnapshot `json:"recent"`
}

// statuszSeriesTail bounds how many time-series samples /statusz
// inlines (the full ring is available from the series export path).
const statuszSeriesTail = 60

// handleStatusz serves GET /statusz.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		respondErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	resp := &StatuszResponse{
		Pool: PoolStatus{
			Workers:  s.pool.Workers(),
			Capacity: s.pool.Capacity(),
			Pending:  s.pool.Pending(),
		},
		Cache: s.pool.MemoStats(),
		Runs: RunsStatus{
			Active: obs.Runs().Active(),
			Recent: obs.Runs().Recent(),
		},
		Series: obs.SeriesSnapshot{
			IntervalSeconds: s.cfg.SampleInterval.Seconds(),
			Samples:         s.series.Tail(statuszSeriesTail),
		},
	}
	respondJSON(w, http.StatusOK, resp)
}

// ProgressDone is the data payload of a progress stream's final "done"
// event: the cell's canonical key (matching the response body's "key"
// field) and whether the evaluation succeeded.
type ProgressDone struct {
	Key string `json:"key"`
	OK  bool   `json:"ok"`
}

// maxProgressWait clamps the ?wait= grace period a progress watcher may
// spend polling for a cell that has not been submitted yet.
const maxProgressWait = 30 * time.Second

// handleProgress serves GET /progress?key=<cell key>: a Server-Sent
// Events stream of the cell's evaluation progress.
//
//	event: progress   data: RunStatusSnapshot JSON (periodic)
//	event: done       data: ProgressDone JSON (terminal; stream closes)
//
// Memoized cells answer with an immediate "done". Unknown cells 404
// unless ?wait=<seconds> is given, in which case the watcher polls for
// the cell to appear — the race-free way to open a stream before
// POSTing the evaluation. Watchers peek at the pool without joining, so
// a disconnecting client can never cancel a run other waiters still
// want; the run completes and is memoized regardless.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		respondErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		respondErrorJSON(w, http.StatusBadRequest, "missing_key", "key query parameter is required")
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		secs, err := strconv.ParseFloat(ws, 64)
		if err != nil || secs < 0 {
			respondErrorJSON(w, http.StatusBadRequest, "bad_wait", "wait must be a nonnegative number of seconds")
			return
		}
		wait = time.Duration(secs * float64(time.Second))
		if wait > maxProgressWait {
			wait = maxProgressWait
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		respondErrorJSON(w, http.StatusInternalServerError, "no_streaming", "response writer cannot stream")
		return
	}

	// Find the cell: memoized, in flight, or (within the wait budget)
	// not yet submitted.
	deadline := time.Now().Add(wait)
	var st *obs.RunStatus
	var done <-chan struct{}
	for {
		var found bool
		if st, done, found = s.pool.Peek(key); found {
			break
		}
		if !time.Now().Before(deadline) {
			respondErrorJSON(w, http.StatusNotFound, "unknown_cell",
				"no memoized result or in-flight evaluation for this key")
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}

	obsProgressStreams.Inc()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(event string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	}

	tick := time.NewTicker(s.cfg.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			writeEvent("done", ProgressDone{Key: key, OK: st == nil || st.Phase() == obs.PhaseDone})
			return
		default:
		}
		writeEvent("progress", st.Snapshot())
		select {
		case <-done:
		case <-tick.C:
		case <-r.Context().Done():
			obsProgressDisconnects.Inc()
			return
		}
	}
}
