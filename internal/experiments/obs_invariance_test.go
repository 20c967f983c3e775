package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/obs"
)

// TestObsByteInvariance enforces the observability layer's hard
// contract: rendered experiment output is byte-identical with
// observability on or off, with a tracer attached or not, and at any
// worker count. The sample covers the exit-replay, task-replay, timing,
// and fault-injection paths, plus the resilient batch runner (progress
// reporter + experiment spans). Run under -race by scripts/check.sh,
// this is also the proof that the obs counters' atomics don't race the
// engine's worker pool.
func TestObsByteInvariance(t *testing.T) {
	render := func(name string, workers int, observed bool) string {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			obs.SetEnabled(true)
			obs.SetTracer(obs.NewTracer())
		} else {
			obs.SetEnabled(false)
			obs.SetTracer(nil)
		}
		defer func() {
			obs.SetEnabled(false)
			obs.SetTracer(nil)
		}()

		cfg := quickCfg
		cfg.Workers = workers
		var b strings.Builder
		// Through the resilient runner, so experiment-phase spans and the
		// progress reporter (on a discarded side channel) exercise too.
		outcomes := RunResilient(&b, cfg, []Runner{r}, RunOptions{
			Progress: obs.NewProgress(io.Discard, "test", 1),
		})
		if err := outcomes[0].Err; err != nil {
			t.Fatalf("%s (workers=%d observed=%v): %v", name, workers, observed, err)
		}
		// The runner's "[name done in Xms]" timing line is wall-clock and
		// legitimately varies run to run; strip it, keeping every
		// experiment table byte.
		lines := strings.Split(b.String(), "\n")
		kept := lines[:0]
		for _, l := range lines {
			if strings.HasPrefix(l, "[") && strings.HasSuffix(l, "]") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}

	for _, name := range []string{"fig7", "table3", "fault-sweep"} {
		base := render(name, 1, false)
		for _, tc := range []struct {
			workers  int
			observed bool
		}{
			{1, true},
			{4, false},
			{4, true},
		} {
			got := render(name, tc.workers, tc.observed)
			if got != base {
				t.Errorf("%s: output with workers=%d observed=%v differs from workers=1 observed=false:\n--- base\n%s\n--- got\n%s",
					name, tc.workers, tc.observed, base, got)
			}
		}
	}

	// The same contract at the engine level, across the streaming axis:
	// one cell's replay outcome is byte-identical whether it streams
	// generated blocks or replays a cached trace slice, with telemetry
	// enabled or not, and with a live run status attached or not (the
	// status is a pure side channel — run-level progress must never leak
	// into results).
	renderCell := func(stream, observed, withStatus bool) string {
		obs.SetEnabled(observed)
		defer obs.SetEnabled(false)
		r := engine.Run{Workload: "exprc", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: 20000, Stream: stream}
		if withStatus {
			r.Status = obs.Runs().Start("invariance", r.Workload, r.Spec, "exit")
		}
		p := engine.NewPool(1, 0, 0, 0) // a fresh memo: every variant runs
		defer p.Close()
		res := p.Execute([]engine.Run{r})[0]
		if res.Err != nil {
			t.Fatalf("stream=%v observed=%v status=%v: %v", stream, observed, withStatus, res.Err)
		}
		return fmt.Sprintf("%s %+v", res.Label(), res.Exit)
	}
	cellBase := renderCell(false, false, false)
	for _, tc := range []struct {
		stream, observed, status bool
	}{
		{false, true, false},
		{false, false, true},
		{false, true, true},
		{true, false, false},
		{true, true, false},
		{true, false, true},
		{true, true, true},
	} {
		if got := renderCell(tc.stream, tc.observed, tc.status); got != cellBase {
			t.Errorf("cell render with stream=%v observed=%v status=%v drifted:\n--- base\n%s\n--- got\n%s",
				tc.stream, tc.observed, tc.status, cellBase, got)
		}
	}

	// And observability actually observed something along the way.
	snap := obs.Default().Snapshot()
	total := int64(0)
	for _, c := range snap.Counters {
		if c.Name == "engine.run.total" {
			total = c.Value
		}
	}
	if total == 0 {
		t.Error("engine.run.total stayed 0 across observed runs — instrumentation not firing")
	}
}
