package mserve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Structured access logging: one slog line per request with a
// process-unique request id, echoed to the client in the
// X-Mserve-Request header so a client-reported failure can be joined
// against the server's log (and, for memo misses, against the pool span
// stamped with the same id via Run.Label).

// accessRecord collects the request facts only the handler knows — the
// canonical cell key and which memo path served it. It travels in the
// request context; handlers fill it, the middleware logs it.
type accessRecord struct {
	mu    sync.Mutex
	key   string
	cache string // hit | miss | join | "" (non-eval or rejected)
}

func (a *accessRecord) set(key, cache string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.key, a.cache = key, cache
	a.mu.Unlock()
}

func (a *accessRecord) get() (key, cache string) {
	if a == nil {
		return "", ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.key, a.cache
}

type accessRecordKey struct{}

// accessRecordFrom returns the request's record (nil outside the
// middleware, e.g. handlers invoked directly in tests — all record
// methods are nil-safe).
func accessRecordFrom(ctx context.Context) *accessRecord {
	rec, _ := ctx.Value(accessRecordKey{}).(*accessRecord)
	return rec
}

// statusWriter captures the response status for the log line. It
// forwards Flush so SSE handlers keep streaming through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// nextRequestID mints process-unique request ids. Monotone per process,
// not globally unique — the id's job is joining one client's report to
// one log line and one span, not distributed tracing.
var nextRequestID atomic.Int64

// withAccessLog wraps h with request-id minting and one structured log
// line per request.
func (s *Server) withAccessLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("r%08d", nextRequestID.Add(1))
		w.Header().Set("X-Mserve-Request", rid)
		rec := &accessRecord{}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), accessRecordKey{}, rec)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		key, cache := rec.get()
		attrs := []any{
			slog.String("id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("latency_us", time.Since(start).Microseconds()),
		}
		if key != "" {
			attrs = append(attrs, slog.String("cell", key))
		}
		if cache != "" {
			attrs = append(attrs, slog.String("cache", cache))
		}
		s.accessLog.Info("request", attrs...)
	})
}
