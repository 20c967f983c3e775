package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one Chrome trace-event object. The field set is the subset
// of the trace-event format that Perfetto and chrome://tracing render:
// complete events (Ph "X", with Dur) for spans and instant events
// (Ph "i") for point occurrences. Timestamps are microseconds relative
// to the tracer's start, process id is always 1 (one simulator
// process), and thread id identifies the logical lane — worker N for
// engine runs, lane 0 for experiment phases.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer accumulates trace events in memory. It is safe for concurrent
// use; the engine's worker goroutines append to one shared tracer.
// Events are buffered until WriteJSON flushes them — the flush may run
// mid-batch (SIGINT), in which case the output is simply a shorter but
// still complete, valid JSON array.
type Tracer struct {
	mu     sync.Mutex
	base   time.Time
	events []Event
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// micros converts an absolute time to tracer-relative microseconds.
func (t *Tracer) micros(at time.Time) int64 {
	return at.Sub(t.base).Microseconds()
}

// Complete records a span: a complete ("X") event covering
// [start, start+dur) on logical lane tid.
func (t *Tracer) Complete(name, cat string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	ev := Event{
		Name: name, Cat: cat, Ph: "X",
		TS: t.micros(start), Dur: dur.Microseconds(),
		PID: 1, TID: tid, Args: args,
	}
	if ev.Dur < 1 {
		ev.Dur = 1 // sub-microsecond spans still render
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the buffered events (test hook).
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSON renders the buffered events as a Chrome trace-event JSON
// array, one event per line. The writer sees a complete, valid array
// even when the batch was interrupted partway — whatever spans were
// recorded by then are flushed, which is exactly the
// truncated-but-valid contract mbench's SIGINT path relies on.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()

	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
