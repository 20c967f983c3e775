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
	// CacheCap bounds the result cache in entries (0 = DefaultCacheCap).
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
	if c.Queue < 0 {
		c.Queue = 0
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
	if c.RunTimeout < 0 {
		c.RunTimeout = 0
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
// end over one engine.Pool and one result cache. Construct with New,
// serve with Start (or mount Handler in a test server), stop with
// Shutdown.
type Server struct {
	cfg       Config
	pool      *engine.Pool
	cache     *resultCache
	health    *obs.Health
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the access-log middleware
	http      *http.Server
	ln        net.Listener
	series    *obs.TimeSeries
	accessLog *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	evals    atomic.Int64 // pool submissions (flight leaders), for coalescing assertions
	ewmaNs   atomic.Int64 // EWMA of observed submit-to-done latency, drives Retry-After
	draining atomic.Bool
}

// New builds a server (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      engine.NewPool(cfg.Workers, cfg.Queue, cfg.RunTimeout),
		cache:     newResultCache(cfg.CacheCap),
		health:    obs.NewHealth(),
		series:    obs.NewTimeSeries(obs.Default(), cfg.SeriesCap, cfg.SampleInterval),
		accessLog: cfg.AccessLog,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.series.Start()

	obsHandler := obs.HandlerWithHealth(obs.Default(), s.health)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/eval", s.handleEval)
	s.mux.HandleFunc("/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/progress", s.handleProgress)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			fmt.Fprint(w, "multiscalar prediction service\n\n"+
				"  POST /eval             evaluate one grid cell (JSON)\n"+
				"  GET  /workloads        list workloads\n"+
				"  GET  /statusz          live status (pool, cache, runs, series)\n"+
				"  GET  /progress?key=    per-cell progress stream (SSE)\n"+
				"  GET  /healthz          liveness\n"+
				"  GET  /readyz           readiness (flips during drain)\n"+
				"  GET  /metricz          metrics snapshot\n"+
				"  GET  /debug/pprof/     live profiling\n")
			return
		}
		obsHandler.ServeHTTP(w, r)
	})
	s.handler = s.withAccessLog(s.mux)
	s.http = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the server's handler chain (for httptest-style
// embedding): the mux wrapped in the access-log middleware, exactly
// what a listening server serves.
func (s *Server) Handler() http.Handler { return s.handler }

// Pool returns the evaluation pool (tests use it to install a stub
// runner; production code has no reason to touch it).
func (s *Server) Pool() *engine.Pool { return s.pool }

// Evals returns how many evaluations were actually submitted to the
// pool — the denominator coalescing and cache tests assert against.
func (s *Server) Evals() int64 { return s.evals.Load() }

// CacheLen returns the number of cached results.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Start listens on addr (":0" picks a free port) and serves in the
// background; it returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mserve: listen %s: %w", addr, err)
	}
	s.ln = ln
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
		<-s.baseCtx.Done() // another Shutdown is driving; wait for it
		return nil
	}
	s.health.SetReady(false)
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	s.series.Stop()
	s.baseCancel()
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

// respondBody writes a pre-rendered success body.
func respondBody(w http.ResponseWriter, cachePath string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mserve-Cache", cachePath)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
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
	if ewma <= 0 {
		return 1
	}
	pending := s.pool.Pending()
	est := ewma.Seconds() * float64(pending+1) / float64(s.pool.Workers())
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// observeLatency folds one submit-to-done duration into the EWMA
// (weight 1/8) that Retry-After is derived from.
func (s *Server) observeLatency(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = d.Nanoseconds()
		} else {
			next = old + (d.Nanoseconds()-old)/8
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// runFlight is the flight leader body: it submits the cell to the pool
// under the flight's context (cancelled only when every waiter has given
// up while the run is still queued), renders the deterministic success
// body, and publishes the outcome.
func (s *Server) runFlight(key string, f *flight) {
	s.evals.Add(1)
	obsQueueDepth.Set(int64(s.pool.Pending()))
	start := time.Now()
	run := f.cell.Run()
	run.Status = f.status
	run.Label = f.reqID // correlates the pool span with the access log
	res, err := s.pool.Submit(f.ctx, run)
	if err == nil {
		s.observeLatency(time.Since(start))
	}
	// The pool resolves most terminal phases itself (done, failed,
	// abandoned, cancelled-while-queued); runs it never admitted — shed
	// or post-drain submits — are failed here. Terminal phases are
	// sticky, so this is a no-op whenever the pool already decided.
	if err != nil {
		f.status.Fail()
	}
	var body []byte
	if err == nil && res.Err == nil {
		if b, merr := json.Marshal(RenderResponse(f.cell, res)); merr == nil {
			body = append(b, '\n')
		} else {
			err = fmt.Errorf("mserve: encoding result: %w", merr)
		}
	}
	if res.Err != nil {
		var pe *fault.PanicError
		if errors.As(res.Err, &pe) {
			obsRunPanics.Inc()
			// The full stack goes to the operator log, never the client.
			fmt.Fprintf(s.cfg.ErrLog, "mserve: panic isolated in %s: %v\n", key, res.Err)
		}
	}
	s.cache.complete(key, f, body, res, err)
	obsQueueDepth.Set(int64(s.pool.Pending()))
}

// handleEval serves POST /eval: decode → validate → cache/singleflight →
// pool → deterministic body. Every exit increments exactly one outcome
// counter.
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

	key := cell.Key()
	rec := accessRecordFrom(r.Context())
	body, f, leader := s.cache.acquire(key, cell, s.baseCtx)
	if body != nil {
		obsCacheHits.Inc()
		obsReqOK.Inc()
		rec.set(key, "hit")
		respondBody(w, "hit", body)
		return
	}
	cachePath := "join"
	if leader {
		obsCacheMisses.Inc()
		cachePath = "miss"
		f.reqID = w.Header().Get("X-Mserve-Request")
		go s.runFlight(key, f)
	} else {
		obsCoalesced.Inc()
	}
	rec.set(key, cachePath)

	select {
	case <-ctx.Done():
		s.cache.release(f)
		obsReqDeadline.Inc()
		respondErrorJSON(w, http.StatusGatewayTimeout, "deadline",
			fmt.Sprintf("request exceeded its %v deadline", timeout))
		return
	case <-f.done:
	}

	switch {
	case errors.Is(f.err, engine.ErrPoolBusy):
		obsReqShed.Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		respondErrorJSON(w, http.StatusTooManyRequests, "overloaded",
			"evaluation queue is full; retry after the indicated delay")
	case errors.Is(f.err, engine.ErrPoolClosed):
		obsReqDrain.Inc()
		respondErrorJSON(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case f.err != nil:
		status, code := errorCodeFor(f.err)
		if code == "deadline" {
			// The flight was cancelled out from under this waiter (its
			// other waiters left while it was queued) — retryable.
			obsReqDrain.Inc()
			w.Header().Set("Retry-After", "1")
			respondErrorJSON(w, http.StatusServiceUnavailable, "cancelled",
				"evaluation was cancelled before it started; retry")
			return
		}
		obsReqFailed.Inc()
		respondErrorJSON(w, status, code, f.err.Error())
	case f.res.Err != nil:
		obsReqFailed.Inc()
		status, code := errorCodeFor(f.res.Err)
		msg := f.res.Err.Error()
		var pe *fault.PanicError
		if errors.As(f.res.Err, &pe) {
			// Structured 500 without the stack (that went to the log).
			msg = fmt.Sprintf("panic isolated during evaluation: %v", pe.Value)
		}
		respondErrorJSON(w, status, code, msg)
	default:
		obsReqOK.Inc()
		respondBody(w, cachePath, f.body)
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
