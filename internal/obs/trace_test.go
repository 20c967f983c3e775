package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerWritesValidTraceEventJSON(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	tr.Complete("run exprc", "engine", 1, start, 5*time.Millisecond, map[string]any{
		"workload": "exprc", "spec": "perfect", "worker": 0,
	})
	tr.Complete("experiment fig7", "experiment", 0, start, 80*time.Millisecond, nil)
	tr.Instant("interrupt", "cli", 0, nil)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a valid JSON array: %v\n%s", err, b.String())
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	// The fields Perfetto requires of a complete event.
	ev := events[0]
	for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
		if _, ok := ev[k]; !ok {
			t.Errorf("event missing %q: %v", k, ev)
		}
	}
	if ev["ph"] != "X" {
		t.Errorf("ph = %v, want X", ev["ph"])
	}
	if events[2]["ph"] != "i" {
		t.Errorf("instant ph = %v, want i", events[2]["ph"])
	}
}

// TestTracerPartialFlushIsValid is the SIGINT contract: flushing while
// events are still being appended yields a shorter but valid JSON
// array, and a later flush sees at least as many events.
func TestTracerPartialFlushIsValid(t *testing.T) {
	tr := NewTracer()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				tr.Complete("run", "engine", 1, time.Now(), time.Microsecond, nil)
			}
		}
	}()

	for i := 0; i < 5; i++ {
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		var events []json.RawMessage
		if err := json.Unmarshal(b.Bytes(), &events); err != nil {
			t.Fatalf("mid-run flush %d is not valid JSON: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTracerEmptyFlush(t *testing.T) {
	var b bytes.Buffer
	if err := NewTracer().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty tracer produced %d events", len(events))
	}
}

func TestProgressReportsCompletionAndETA(t *testing.T) {
	var b bytes.Buffer
	p := NewProgress(&b, "mbench", 3)
	p.Step("fig7", 120*time.Millisecond)
	p.Step("fig8", 80*time.Millisecond)
	p.Step("table3", 50*time.Millisecond)

	out := b.String()
	if !strings.Contains(out, "mbench: 1/3 done (fig7 in 120ms)") {
		t.Errorf("missing first step line:\n%s", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("no ETA on intermediate steps:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if strings.Contains(lines[2], "eta") {
		t.Errorf("final step should not carry an ETA: %s", lines[2])
	}
}

func TestProgressDisabled(t *testing.T) {
	// Nil receiver and nil writer are both inert.
	var nilP *Progress
	nilP.Step("x", 0)
	NewProgress(nil, "x", 5).Step("y", time.Second)
}
