package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"multiscalar/internal/core"
	"multiscalar/internal/trace"
)

// Report is the outcome of one recovery-validation run: a faulted replay
// of a predictor against the trace oracle, side by side with the
// fault-free baseline.
type Report struct {
	// Predictor is the faulted predictor's name.
	Predictor string
	// Spec is the injection configuration the run used.
	Spec Spec
	// Steps is the number of prediction events replayed.
	Steps int
	// BaselineMisses is the fault-free task miss count over the same
	// trace.
	BaselineMisses int
	// FaultedMisses is the task miss count with injection enabled.
	FaultedMisses int
	// Injection is the injector's per-kind activity.
	Injection Stats
	// Panicked carries the recovered panic as a structured error when the
	// faulted replay panicked (nil on a clean run).
	Panicked error
	// Diverged is non-nil when the replay diverged from the trace oracle:
	// the injector mutated the shared trace, dropped steps, or followed a
	// path the oracle did not take.
	Diverged error
}

// BaselineMissRate returns the fault-free task miss rate in [0, 1].
func (r Report) BaselineMissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.BaselineMisses) / float64(r.Steps)
}

// FaultedMissRate returns the faulted task miss rate in [0, 1].
func (r Report) FaultedMissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.FaultedMisses) / float64(r.Steps)
}

// Check verifies the recovery invariants the paper's speculation model
// promises and returns the first violation:
//
//  1. no panic — internal inconsistency must surface as degraded
//     accuracy, not a crash;
//  2. no divergence — prediction is advisory, so injected faults must
//     never alter the oracle's control flow or the shared trace;
//  3. visible injection — when every kind is enabled at a non-trivial
//     rate over enough steps, at least one fault must actually land
//     (otherwise the harness is testing nothing);
//  4. graceful degradation — faults may only cost accuracy: the faulted
//     miss count must not be (meaningfully) below the baseline. A slack
//     of 1% of steps absorbs the rare lucky flip that happens to fix a
//     miss at low rates.
func (r Report) Check() error {
	if r.Panicked != nil {
		return fmt.Errorf("fault: faulted replay panicked: %w", r.Panicked)
	}
	if r.Diverged != nil {
		return fmt.Errorf("fault: faulted replay diverged from the trace oracle: %w", r.Diverged)
	}
	if r.Spec.Enabled() && r.Steps >= 1000 && minRate(r.Spec) >= 0.01 && r.Injection.TotalInjected() == 0 {
		return fmt.Errorf("fault: spec %v over %d steps injected nothing", r.Spec, r.Steps)
	}
	slack := r.Steps / 100
	if r.FaultedMisses+slack < r.BaselineMisses {
		return fmt.Errorf("fault: faulted run missed less than baseline (%d < %d of %d steps) — injection is helping, not degrading",
			r.FaultedMisses, r.BaselineMisses, r.Steps)
	}
	return nil
}

// minRate returns the smallest enabled (non-zero) rate, or 0 when none.
func minRate(s Spec) float64 {
	min := 0.0
	for _, r := range s.Rate {
		if r > 0 && (min == 0 || r < min) {
			min = r
		}
	}
	return min
}

// PanicError is a panic converted to a structured error by the harness
// or the resilient experiment runner.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time (may be empty).
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
	}
	return fmt.Sprintf("panic: %v", e.Value)
}

// Checksum fingerprints a trace's prediction-relevant contents: one
// 9-byte record per step (task address, exit, target address — zero
// after a halt), read through the columns and their dictionary. The
// harness (and the engine's faulted runs) compare checksums before and
// after a replay to prove the injector never wrote through to shared
// trace state.
func Checksum(c *trace.Columnar) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	cur := c.Blocks()
	// A cursor over resident columns never returns an error.
	for b, _ := cur.NextBlock(); b != nil; b, _ = cur.NextBlock() {
		entries := b.Dict.Entries
		for i := 0; i < b.N; i++ {
			exit, target := b.Exits[i], uint32(0)
			if exit != trace.HaltExit {
				target = uint32(entries[b.TargetIdx[i]].Addr)
			}
			binary.LittleEndian.PutUint32(buf[0:], uint32(entries[b.TaskIdx[i]].Addr))
			buf[4] = byte(exit)
			binary.LittleEndian.PutUint32(buf[5:], target)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// replayFaulted replays the trace through the injector, recovering any
// panic into the report. The oracle (the trace) drives control flow; the
// injector only predicts, exactly as the sequencer's prediction hardware
// only ever hints. The injector has no block fast path, so the kernel's
// generic per-step loop drives its Predict/Update calls.
func replayFaulted(c *trace.Columnar, inj *Injector, rep *Report) {
	defer func() {
		if v := recover(); v != nil {
			rep.Panicked = &PanicError{Value: v}
		}
	}()
	res, err := core.EvaluateTaskBlocks(c.Blocks(), inj)
	if err != nil {
		rep.Diverged = err
		return
	}
	rep.FaultedMisses = res.Misses
	if res.Steps != rep.Steps {
		rep.Diverged = fmt.Errorf("faulted replay scored %d steps, oracle has %d", res.Steps, rep.Steps)
	}
}

// CheckRecovery runs the full recovery-validation harness: a fault-free
// baseline replay of mk()'s predictor over the columnar trace c, then a
// faulted replay of a fresh predictor under spec, verifying along the way
// that the trace oracle is never mutated. The returned report carries
// both miss counts and the injection stats; call Report.Check for the
// invariant verdict.
func CheckRecovery(c *trace.Columnar, mk func() core.TaskPredictor, spec Spec) (Report, error) {
	rep := Report{Spec: spec, Steps: c.PredictionSteps()}

	sum := Checksum(c)
	base, err := core.EvaluateTaskBlocks(c.Blocks(), mk())
	if err != nil {
		return rep, err
	}
	rep.BaselineMisses = base.Misses

	inj, err := New(spec, mk())
	if err != nil {
		return rep, err
	}
	rep.Predictor = inj.Name()
	replayFaulted(c, inj, &rep)
	rep.Injection = inj.Stats()

	if rep.Diverged == nil && Checksum(c) != sum {
		rep.Diverged = fmt.Errorf("trace contents changed during faulted replay")
	}
	if rep.Diverged == nil {
		if err := c.Materialize().Validate(); err != nil {
			rep.Diverged = fmt.Errorf("trace no longer validates against its TFG: %w", err)
		}
	}
	return rep, nil
}
