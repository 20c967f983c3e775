package fault_test

import (
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
)

// TestRecoveryInvariants is the acceptance test for the fault subsystem,
// holding faulted task and timing runs to the recovery invariants the
// paper's speculation model promises (§3.1, §5.3): with faults at any
// rate, up to every kind on every step, a run never fails (no panic, no
// divergence from the trace oracle, columns unchanged — the engine's own
// checks), scores exactly the fault-free step count, visibly injects
// when every rate is at least 1% over at least 1,000 steps, and only
// loses accuracy: the faulted misses plus a slack of 1% of steps, for
// the rare lucky flip, reach the fault-free misses. Three workloads,
// four rates, each as a task replay and as a timing run (whose misses
// are the ring model's TaskMispredicts).
func TestRecoveryInvariants(t *testing.T) {
	const steps = 6000
	arms := []struct {
		prefix string
		run    engine.Run
		score  func(*engine.Result) (steps, misses int)
	}{
		{"", engine.Run{Spec: fullSpec, MaxSteps: steps},
			func(r *engine.Result) (int, int) { return r.Task.Steps, r.Task.Misses }},
		{"timing/", engine.Run{Spec: fullSpec, Mode: engine.ModeTiming, TimingSteps: steps},
			func(r *engine.Result) (int, int) { return r.Timing.Tasks, r.Timing.TaskMispredicts }},
	}
	for _, w := range []string{"exprc", "compressb", "boolmin"} {
		for _, arm := range arms {
			run := arm.run
			run.Workload = w
			base := engine.Do(run)
			if base.Err != nil {
				t.Fatal(base.Err)
			}
			baseSteps, baseMisses := arm.score(&base)
			for _, f := range []string{"all=0.001", "all=0.01,seed=5", "all=0.1", "all=1"} {
				t.Run(w+"/"+arm.prefix+f, func(t *testing.T) {
					faulted := run
					faulted.Fault = f
					res := engine.Do(faulted)
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if !res.Faulted {
						t.Fatal("faulted run not marked Faulted")
					}
					steps, misses := arm.score(&res)
					if steps != baseSteps {
						t.Fatalf("faulted run scored %d steps, fault-free %d", steps, baseSteps)
					}
					minRate := 1.0
					for _, r := range fault.MustSpec(f).Rate {
						if r > 0 {
							minRate = min(minRate, r)
						}
					}
					if minRate >= 0.01 && steps >= 1000 && res.Injection.TotalInjected() == 0 {
						t.Errorf("injected nothing over %d steps: %+v", steps, res.Injection)
					}
					if slack := steps / 100; misses+slack < baseMisses {
						t.Errorf("faulted run missed less than fault-free (%d < %d of %d steps)",
							misses, baseMisses, steps)
					}
				})
			}
		}
	}
}
