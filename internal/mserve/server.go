package mserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
	"multiscalar/internal/workload"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the evaluation pool size (0 = GOMAXPROCS).
	Workers int
	// Queue is how many admitted runs may wait beyond the in-flight
	// workers before Submit sheds (0 = 4×Workers; <0 = none). The hard
	// cap on admitted work is Workers+Queue.
	Queue int
	// MaxBody caps /eval request bodies in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// DefaultTimeout is the per-request deadline when the client sends
	// none (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (0 = 2m).
	MaxTimeout time.Duration
	// RunTimeout is the pool's per-run watchdog (0 = 5m; <0 disables).
	RunTimeout time.Duration
	// CacheCap bounds the pool's run memo in results
	// (0 = engine.DefaultMemoCap).
	CacheCap int
	// ErrLog receives operational messages — panic stacks, drain
	// progress (nil = os.Stderr).
	ErrLog *os.File
	// AccessLog receives one structured line per HTTP request (nil = a
	// slog text handler over ErrLog).
	AccessLog *slog.Logger
	// SampleInterval is the metric time-series sampling period
	// (0 = 1s).
	SampleInterval time.Duration
	// SeriesCap bounds the time-series ring in samples
	// (0 = obs.DefaultSeriesCap).
	SeriesCap int
	// ProgressInterval is the SSE progress event period (0 = 250ms).
	ProgressInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Workers
	}
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 5 * time.Minute
	}
	if c.ErrLog == nil {
		c.ErrLog = os.Stderr
	}
	if c.AccessLog == nil {
		c.AccessLog = slog.New(slog.NewTextHandler(c.ErrLog, nil))
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 250 * time.Millisecond
	}
	return c
}

// Server is the prediction-as-a-service daemon: the hardened HTTP front
// end over one engine.Pool, whose memo serves repeated cells. Construct
// with New, serve with Start (or mount Handler in a test server), stop
// with Shutdown.
type Server struct {
	cfg       Config
	pool      *engine.Pool
	health    *obs.Health
	handler   http.Handler // the mux wrapped in the access-log middleware
	http      *http.Server
	series    *obs.TimeSeries
	accessLog *slog.Logger

	stopped  chan struct{} // closed when the first Shutdown completes
	ewmaNs   atomic.Int64  // EWMA of observed submit-to-done latency, drives Retry-After
	draining atomic.Bool
}

// New builds a server (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      engine.NewPool(cfg.Workers, cfg.Queue, cfg.CacheCap, cfg.RunTimeout),
		health:    obs.NewHealth(),
		series:    obs.NewTimeSeries(obs.Default(), cfg.SeriesCap, cfg.SampleInterval),
		accessLog: cfg.AccessLog,
		stopped:   make(chan struct{}),
	}
	s.series.Start()

	obsHandler := obs.HandlerWithHealth(obs.Default(), s.health)
	mux := http.NewServeMux()
	mux.HandleFunc("/eval", s.handleEval)
	mux.HandleFunc("/workloads", s.handleWorkloads)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			fmt.Fprint(w, "multiscalar prediction service\n\n"+
				"  POST /eval             evaluate one grid cell (JSON)\n"+
				"  GET  /workloads        list workloads\n"+
				"  GET  /statusz          live status (pool, memo, runs, series)\n"+
				"  GET  /progress?key=    per-cell progress stream (SSE)\n"+
				"  GET  /healthz          liveness\n"+
				"  GET  /readyz           readiness (flips during drain)\n"+
				"  GET  /metricz          metrics snapshot\n"+
				"  GET  /debug/pprof/     live profiling\n")
			return
		}
		obsHandler.ServeHTTP(w, r)
	})
	s.handler = s.withAccessLog(mux)
	s.http = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the server's handler chain (for httptest-style
// embedding): the mux wrapped in the access-log middleware, exactly
// what a listening server serves.
func (s *Server) Handler() http.Handler { return s.handler }

// Pool returns the evaluation pool (tests use it to install a stub
// runner and read its memo; production code has no reason to touch it).
func (s *Server) Pool() *engine.Pool { return s.pool }

// Start listens on addr (":0" picks a free port) and serves in the
// background; it returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mserve: listen %s: %w", addr, err)
	}
	go s.http.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains gracefully: readiness flips off first (so /readyz
// answers "draining" while in-flight work completes), the listener
// closes and active handlers finish within ctx's budget, then the pool
// drains its admitted runs. Idempotent; safe to call from a signal
// handler goroutine.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.stopped // another Shutdown is driving; wait for it
		return nil
	}
	s.health.SetReady(false)
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	s.series.Stop()
	close(s.stopped)
	return err
}

// respondJSON writes v as one-line JSON with a trailing newline.
func respondJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// respondErrorJSON writes a structured error body.
func respondErrorJSON(w http.ResponseWriter, status int, code, message string) {
	respondJSON(w, status, &ErrorResponse{Error: ErrorBody{Code: code, Message: message}})
}

// retryAfterSeconds derives the Retry-After hint from observed run
// latency: roughly how long until the current backlog has moved through
// the pool, clamped to [1,60] seconds.
func (s *Server) retryAfterSeconds() int {
	ewma := time.Duration(s.ewmaNs.Load())
	est := ewma.Seconds() * float64(s.pool.Pending()+1) / float64(s.pool.Workers())
	return min(max(int(math.Ceil(est)), 1), 60)
}

// observeLatency folds one submit-to-done duration into the EWMA
// (weight 1/8) that Retry-After is derived from.
func (s *Server) observeLatency(d time.Duration) {
	for {
		old, next := s.ewmaNs.Load(), d.Nanoseconds()
		if old != 0 {
			next = old + (next-old)/8
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// handleEval serves POST /eval: decode → validate → pool (memo hit,
// join or miss) → deterministic body. Every exit increments exactly one
// outcome counter.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	obsReqTotal.Inc()
	start := time.Now()
	defer func() { obsReqSeconds.Observe(time.Since(start).Seconds()) }()

	if r.Method != http.MethodPost {
		obsReqBad.Inc()
		w.Header().Set("Allow", http.MethodPost)
		respondErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if s.draining.Load() {
		obsReqDrain.Inc()
		respondErrorJSON(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}

	req, err := DecodeEvalRequest(w, r, s.cfg.MaxBody)
	if err != nil {
		s.respondRequestError(w, err)
		return
	}
	cell, err := ValidateEvalRequest(req)
	if err != nil {
		s.respondRequestError(w, err)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	run := cell.Run()
	run.Label = w.Header().Get("X-Mserve-Request") // correlates the pool span with the access log
	obsQueueDepth.Set(int64(s.pool.Pending()))
	submitted := time.Now()
	res, path, err := s.pool.Submit(ctx, run)
	obsQueueDepth.Set(int64(s.pool.Pending()))
	key := cell.Key()
	accessRecordFrom(r.Context()).set(key, path.String())
	if path == engine.MemoMiss && err == nil {
		s.observeLatency(time.Since(submitted))
		var pe *fault.PanicError
		if errors.As(res.Err, &pe) {
			obsRunPanics.Inc()
			// The full stack goes to the operator log, never the client.
			fmt.Fprintf(s.cfg.ErrLog, "mserve: panic isolated in %s: %v\n", key, res.Err)
		}
	}

	switch {
	case errors.Is(err, engine.ErrPoolBusy):
		obsReqShed.Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		respondErrorJSON(w, http.StatusTooManyRequests, "overloaded",
			"evaluation queue is full; retry after the indicated delay")
	case errors.Is(err, engine.ErrPoolClosed):
		obsReqDrain.Inc()
		respondErrorJSON(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		obsReqDeadline.Inc()
		respondErrorJSON(w, http.StatusGatewayTimeout, "deadline",
			fmt.Sprintf("request exceeded its %v deadline", timeout))
	case err != nil:
		obsReqFailed.Inc()
		status, code := errorCodeFor(err)
		respondErrorJSON(w, status, code, err.Error())
	case res.Err != nil:
		obsReqFailed.Inc()
		status, code := errorCodeFor(res.Err)
		msg := res.Err.Error()
		var pe *fault.PanicError
		if errors.As(res.Err, &pe) {
			// Structured 500 without the stack (that went to the log).
			msg = fmt.Sprintf("panic isolated during evaluation: %v", pe.Value)
		}
		respondErrorJSON(w, status, code, msg)
	default:
		b, err := json.Marshal(renderResponse(key, cell, res))
		if err != nil {
			obsReqFailed.Inc()
			respondErrorJSON(w, http.StatusInternalServerError, "run_failed",
				fmt.Sprintf("mserve: encoding result: %v", err))
			return
		}
		obsReqOK.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Mserve-Cache", path.String())
		w.WriteHeader(http.StatusOK)
		w.Write(append(b, '\n'))
	}
}

// respondRequestError maps validation failures onto their 4xx answers.
func (s *Server) respondRequestError(w http.ResponseWriter, err error) {
	obsReqBad.Inc()
	var re *RequestError
	if errors.As(err, &re) {
		respondErrorJSON(w, re.Status, re.Code, re.Message)
		return
	}
	respondErrorJSON(w, http.StatusBadRequest, "bad_request", err.Error())
}

// workloadJSON is one row of GET /workloads.
type workloadJSON struct {
	Name        string `json:"name"`
	Analog      string `json:"analog"`
	Description string `json:"description"`
}

// handleWorkloads lists the workloads in canonical (paper) order.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		respondErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	rows := []workloadJSON{}
	for _, wl := range workload.All() {
		rows = append(rows, workloadJSON{Name: wl.Name, Analog: wl.Analog, Description: wl.Description})
	}
	respondJSON(w, http.StatusOK, rows)
}
