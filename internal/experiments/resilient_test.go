package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/fault"
)

// namedRunner builds a Runner around fn for the resilient-runner tests.
func namedRunner(name string, fn func(w io.Writer, cfg Config) error) Runner {
	return Runner{Name: name, Brief: name, Run: fn}
}

func TestRunResilientIsolatesFailures(t *testing.T) {
	var buf bytes.Buffer
	sentinel := errors.New("sentinel failure")
	runners := []Runner{
		namedRunner("ok-1", func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "ok-1 output")
			return nil
		}),
		namedRunner("fails", func(w io.Writer, cfg Config) error { return sentinel }),
		namedRunner("panics", func(w io.Writer, cfg Config) error { panic("synthetic crash") }),
		namedRunner("ok-2", func(w io.Writer, cfg Config) error { return nil }),
	}

	outcomes := RunResilient(&buf, Config{}, runners, RunOptions{})
	if len(outcomes) != 4 {
		t.Fatalf("%d outcomes", len(outcomes))
	}
	if outcomes[0].Err != nil || outcomes[3].Err != nil {
		t.Fatalf("healthy runners failed: %v, %v", outcomes[0].Err, outcomes[3].Err)
	}
	if !errors.Is(outcomes[1].Err, sentinel) {
		t.Fatalf("fails: %v", outcomes[1].Err)
	}
	var pe *fault.PanicError
	if !errors.As(outcomes[2].Err, &pe) {
		t.Fatalf("panics: %T %v", outcomes[2].Err, outcomes[2].Err)
	}
	if !strings.Contains(buf.String(), "ok-1 output") {
		t.Fatal("successful output not flushed")
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Fatal("failure marker missing")
	}

	var sum bytes.Buffer
	if failed := Summarize(&sum, outcomes); failed != 2 {
		t.Fatalf("Summarize counted %d failures, want 2", failed)
	}
	// Panic stacks are multi-line; the summary must stay tabular.
	for _, line := range strings.Split(sum.String(), "\n") {
		if strings.Contains(line, "goroutine") {
			t.Fatalf("stack leaked into summary: %q", line)
		}
	}
}

func TestRunResilientWatchdog(t *testing.T) {
	var buf bytes.Buffer
	release := make(chan struct{})
	defer close(release)
	runners := []Runner{
		namedRunner("hangs", func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "partial progress line")
			<-release // simulated hang
			return nil
		}),
		namedRunner("after", func(w io.Writer, cfg Config) error { return nil }),
	}

	outcomes := RunResilient(&buf, Config{}, runners, RunOptions{Timeout: 50 * time.Millisecond})
	var te *TimeoutError
	if !errors.As(outcomes[0].Err, &te) {
		t.Fatalf("hang not killed: %v", outcomes[0].Err)
	}
	if te.Name != "hangs" || te.Limit != 50*time.Millisecond {
		t.Fatalf("timeout error %+v", te)
	}
	// The batch kept going, and the hung experiment's partial output was
	// flushed for diagnosis.
	if outcomes[1].Err != nil {
		t.Fatalf("experiment after the hang failed: %v", outcomes[1].Err)
	}
	if !strings.Contains(buf.String(), "partial progress line") {
		t.Fatal("partial output not flushed on timeout")
	}
	if !strings.Contains(buf.String(), "TIMED OUT") {
		t.Fatal("timeout marker missing")
	}
}

func TestRunResilientInterrupt(t *testing.T) {
	var buf bytes.Buffer
	intr := make(chan struct{})
	runners := []Runner{
		namedRunner("in-flight", func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "halfway there")
			close(intr) // the user hits ^C while this experiment runs
			time.Sleep(5 * time.Second)
			return nil
		}),
		namedRunner("never-runs", func(w io.Writer, cfg Config) error { return nil }),
	}

	outcomes := RunResilient(&buf, Config{}, runners, RunOptions{Interrupt: intr})
	if !errors.Is(outcomes[0].Err, ErrInterrupted) || !errors.Is(outcomes[1].Err, ErrInterrupted) {
		t.Fatalf("interrupt outcomes: %+v", outcomes)
	}
	if outcomes[1].Duration != 0 {
		t.Fatal("skipped experiment reports a duration")
	}
	if !strings.Contains(buf.String(), "halfway there") {
		t.Fatal("partial output not flushed on interrupt")
	}
	if !strings.Contains(buf.String(), "interrupted") {
		t.Fatal("interrupt marker missing")
	}
}

func TestFaultSweepDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload sweep")
	}
	res, err := faultSweepResults(Config{MaxSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 3 {
		t.Fatalf("%d workloads in sweep, want >= 3", len(res))
	}
	last := len(FaultSweepRates) - 1
	for _, rs := range res {
		name := rs[0].Run.Workload
		if len(rs) != len(FaultSweepRates) {
			t.Fatalf("%s: %d points", name, len(rs))
		}
		// The degradation endpoints must be ordered: heavy injection cannot
		// beat the fault-free baseline (Report.Check already allows for
		// small lucky-flip wiggle at adjacent rates; the endpoints give the
		// curve its monotone shape).
		if rs[last].Task.MissRate() < rs[0].Task.MissRate() {
			t.Errorf("%s: miss rate at rate %g (%.4f) below fault-free (%.4f)",
				name, FaultSweepRates[last], rs[last].Task.MissRate(), rs[0].Task.MissRate())
		}
		if n := rs[0].Injection.TotalInjected(); n != 0 {
			t.Errorf("%s: fault-free point injected %d faults", name, n)
		}
		if rs[last].Injection.TotalInjected() == 0 {
			t.Errorf("%s: heaviest point injected nothing", name)
		}
	}
}
