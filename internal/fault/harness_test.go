package fault_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/fault"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// TestRecoveryInvariants is the acceptance test for the fault subsystem:
// with faults enabled at any rate — up to every-kind-every-step — the
// functional replay never panics, never diverges from the trace oracle,
// and only loses accuracy. Three workloads, four rates.
func TestRecoveryInvariants(t *testing.T) {
	rates := []string{"all=0.001", "all=0.01,seed=5", "all=0.1", "all=1"}
	for _, wname := range []string{"exprc", "compressb", "boolmin"} {
		tr := testTrace(t, wname, 6000)
		for _, s := range rates {
			spec := fault.MustSpec(s)
			rep, err := fault.CheckRecovery(tr, fullPredictor, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", wname, s, err)
			}
			if err := rep.Check(); err != nil {
				t.Errorf("%s %s: %v", wname, s, err)
			}
			if rep.Steps == 0 {
				t.Fatalf("%s: empty trace", wname)
			}
		}
	}
}

// TestChecksumMatchesStepRecords pins Checksum's definition: FNV-64a
// over one 9-byte record per step (task, exit, target, little-endian),
// computed here from the materialized steps. Any changed step changes
// the sum.
func TestChecksumMatchesStepRecords(t *testing.T) {
	c := testTrace(t, "exprc", 3000)
	sum := func(steps []trace.Step) uint64 {
		h := fnv.New64a()
		for _, s := range steps {
			var rec [9]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(s.Task))
			rec[4] = byte(s.Exit)
			binary.LittleEndian.PutUint32(rec[5:], uint32(s.Target))
			h.Write(rec[:])
		}
		return h.Sum64()
	}
	tr := c.Materialize()
	if got, want := fault.Checksum(c), sum(tr.Steps); got != want {
		t.Fatalf("Checksum = %#x, want %#x", got, want)
	}
	tr.Steps[100].Target = tr.Steps[0].Task
	changed, err := trace.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if fault.Checksum(changed) == fault.Checksum(c) {
		t.Fatal("a changed target left the checksum unchanged")
	}
}

func TestReportCheckViolations(t *testing.T) {
	base := fault.Report{Steps: 5000, BaselineMisses: 500, FaultedMisses: 600, Spec: fault.MustSpec("all=0.1")}
	base.Injection.Kind[fault.KindCounter] = fault.KindStats{Rolled: 400, Injected: 400}
	if err := base.Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}

	r := base
	r.Panicked = errors.New("boom")
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not reported: %v", err)
	}

	r = base
	r.Diverged = errors.New("drift")
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence not reported: %v", err)
	}

	r = base
	r.Injection = fault.Stats{}
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "injected nothing") {
		t.Fatalf("silent injection not reported: %v", err)
	}

	r = base
	r.FaultedMisses = 100 // far below baseline, beyond the 1% slack
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "helping") {
		t.Fatalf("accuracy gain not reported: %v", err)
	}
}

func TestReportMissRates(t *testing.T) {
	r := fault.Report{Steps: 200, BaselineMisses: 20, FaultedMisses: 50}
	if got := r.BaselineMissRate(); got != 0.1 {
		t.Fatalf("BaselineMissRate = %g", got)
	}
	if got := r.FaultedMissRate(); got != 0.25 {
		t.Fatalf("FaultedMissRate = %g", got)
	}
	var zero fault.Report
	if zero.BaselineMissRate() != 0 || zero.FaultedMissRate() != 0 {
		t.Fatal("zero-step report has non-zero rates")
	}
}

// panicky is a predictor that panics on the Nth prediction, standing in
// for an injection-triggered crash the harness must contain.
type panicky struct {
	n, at int
}

func (p *panicky) Name() string { return "panicky" }
func (p *panicky) Reset()       { p.n = 0 }
func (p *panicky) Predict(t *tfg.Task) core.Prediction {
	p.n++
	if p.n == p.at {
		panic(fmt.Sprintf("synthetic fault at step %d", p.at))
	}
	return core.Prediction{}
}
func (p *panicky) Update(t *tfg.Task, o core.Outcome) {}

func TestCheckRecoveryContainsPanics(t *testing.T) {
	tr := testTrace(t, "exprc", 2000)

	// CheckRecovery calls mk twice — baseline first, then the faulted
	// replay. Hand it a clean baseline and a predictor that blows up
	// mid-replay: it must return a report carrying the panic, not crash
	// the test process.
	calls := 0
	mk := func() core.TaskPredictor {
		calls++
		if calls == 1 {
			return &panicky{at: 1 << 30} // baseline: never fires
		}
		return &panicky{at: 50}
	}
	rep, err := fault.CheckRecovery(tr, mk, fault.MustSpec("upd=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Panicked == nil {
		t.Fatal("mid-replay panic was not captured")
	}
	var pe *fault.PanicError
	if !errors.As(rep.Panicked, &pe) {
		t.Fatalf("Panicked is %T, want *PanicError", rep.Panicked)
	}
	if err := rep.Check(); err == nil {
		t.Fatal("Check accepted a panicked report")
	}
}

func TestPanicErrorFormat(t *testing.T) {
	e := &fault.PanicError{Value: "boom"}
	if got := e.Error(); got != "panic: boom" {
		t.Fatalf("Error() = %q", got)
	}
	e.Stack = "goroutine 1 [running]:"
	if got := e.Error(); !strings.Contains(got, "boom") || !strings.Contains(got, "goroutine") {
		t.Fatalf("Error() = %q", got)
	}
}
