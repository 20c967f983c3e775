package trace_test

import (
	"errors"
	"testing"

	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// TestCorruptedStepFailsValidate clobbers single steps of a real trace
// and checks that encoding against the trace's graph catches what no
// encoding layer without the graph can know: an out-of-range exit index
// and a task address outside the graph.
func TestCorruptedStepFailsValidate(t *testing.T) {
	c, err := workload.CachedColumnar("exprc", 200)
	if err != nil {
		t.Fatal(err)
	}
	for name, clobber := range map[string]func(s *trace.Step){
		"exit index":   func(s *trace.Step) { s.Exit = 0x7f },
		"task address": func(s *trace.Step) { s.Task = 0xdeadbeef },
	} {
		tr := c.Materialize()
		if err := trace.NewEncoder(tr.Graph).Append(tr.Steps); err != nil {
			t.Fatalf("pristine trace: %v", err)
		}
		clobber(&tr.Steps[3])
		if err := trace.NewEncoder(tr.Graph).Append(tr.Steps); !errors.Is(err, trace.ErrNotColumnar) {
			t.Errorf("corrupted %s: Append = %v, want ErrNotColumnar", name, err)
		}
	}
}
