package fault_test

import (
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
)

// TestRecoveryInvariants is the acceptance test for the fault subsystem,
// holding faulted task runs to the recovery invariants the paper's
// speculation model promises (§3.1, §5.3): with faults at any rate, up
// to every kind on every step, a run never fails (no panic, no
// divergence from the trace oracle, columns unchanged — the engine's own
// checks), scores exactly the fault-free step count, visibly injects
// when every rate is at least 1% over at least 1,000 steps, and only
// loses accuracy: the faulted misses plus a slack of 1% of steps, for
// the rare lucky flip, reach the fault-free misses. Three workloads,
// four rates.
func TestRecoveryInvariants(t *testing.T) {
	const steps = 6000
	for _, w := range []string{"exprc", "compressb", "boolmin"} {
		base := engine.Do(engine.Run{Workload: w, Spec: fullSpec, MaxSteps: steps})
		if base.Err != nil {
			t.Fatal(base.Err)
		}
		for _, f := range []string{"all=0.001", "all=0.01,seed=5", "all=0.1", "all=1"} {
			t.Run(w+"/"+f, func(t *testing.T) {
				res := engine.Do(engine.Run{Workload: w, Spec: fullSpec, Fault: f, MaxSteps: steps})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if !res.Faulted {
					t.Fatal("faulted run not marked Faulted")
				}
				if res.Task.Steps != base.Task.Steps {
					t.Fatalf("faulted run scored %d steps, fault-free %d", res.Task.Steps, base.Task.Steps)
				}
				minRate := 1.0
				for _, r := range fault.MustSpec(f).Rate {
					if r > 0 {
						minRate = min(minRate, r)
					}
				}
				if minRate >= 0.01 && res.Task.Steps >= 1000 && res.Injection.TotalInjected() == 0 {
					t.Errorf("injected nothing over %d steps: %+v", res.Task.Steps, res.Injection)
				}
				if slack := res.Task.Steps / 100; res.Task.Misses+slack < base.Task.Misses {
					t.Errorf("faulted run missed less than fault-free (%d < %d of %d steps)",
						res.Task.Misses, base.Task.Misses, res.Task.Steps)
				}
			})
		}
	}
}
