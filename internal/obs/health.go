package obs

import (
	"net/http"
	"sync/atomic"
)

// Health is a process's liveness/readiness state, served by Handler as
// /healthz and /readyz. Liveness is static — if the process answers at
// all it is alive. Readiness is a switch the serving layer owns: a
// daemon flips it off at the start of a graceful drain so load balancers
// and smoke tests stop sending work before the listener actually
// closes.
//
// Both endpoints render fixed byte-stable bodies (pinned by golden
// tests): "ok\n" for /healthz, "ready\n" (200) or "draining\n" (503)
// for /readyz.
type Health struct {
	ready atomic.Bool
}

// NewHealth returns a Health that starts ready.
func NewHealth() *Health {
	h := &Health{}
	h.ready.Store(true)
	return h
}

// SetReady flips the readiness state (false at the start of a drain).
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }

// handleHealthz serves liveness: always 200 "ok\n".
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz serves readiness for h; a nil Health is always ready
// (introspection-only endpoints have no drain sequence).
func handleReadyz(h *Health) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if h != nil && !h.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ready\n"))
	}
}
