package engine

import (
	"errors"
	"strings"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/workload"
)

const stdSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

// TestDoTaskEndToEnd is the trace → predictor end-to-end test promised in
// internal/sim/functional: a functional-simulator trace replayed through
// an engine-built composed predictor scores every prediction step and
// lands at a plausible miss rate.
func TestDoTaskEndToEnd(t *testing.T) {
	const steps = 30000
	res := Do(Run{Workload: "exprc", Spec: stdSpec, MaxSteps: steps})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr, err := workload.CachedColumnar("exprc", steps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.Steps != tr.PredictionSteps() {
		t.Fatalf("scored %d steps, trace has %d", res.Task.Steps, tr.PredictionSteps())
	}
	if mr := res.Task.MissRate(); mr <= 0 || mr >= 0.5 {
		t.Fatalf("implausible miss rate %.4f for the standard predictor", mr)
	}
	if res.Task.ByKind[isa.KindBranch].Steps == 0 {
		t.Fatalf("no branch exits scored: %+v", res.Task.ByKind)
	}
	if res.Faulted {
		t.Fatal("fault-free run reports Faulted")
	}
	if res.Label() != stdSpec {
		t.Fatalf("Label = %q", res.Label())
	}
}

func TestDoModeAutoFollowsClass(t *testing.T) {
	exit := Do(Run{Workload: "exprc", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: 20000})
	if exit.Err != nil {
		t.Fatal(exit.Err)
	}
	if exit.Exit.Steps == 0 || exit.Task.Steps != 0 {
		t.Fatalf("exit spec did not run in exit mode: %+v", exit)
	}

	target := Do(Run{Workload: "minilisp", Spec: "cttb:d7-o4-l4-c5-f3", MaxSteps: 20000})
	if target.Err != nil {
		t.Fatal(target.Err)
	}
	if target.Target.Steps == 0 {
		t.Fatal("target spec did not run in target mode")
	}

	// A Mode override evaluates the same buffer as a CTTB-only task
	// predictor instead.
	asTask := Do(Run{Workload: "minilisp", Spec: "cttb:d7-o4-l4-c5-f3", Mode: ModeTask, MaxSteps: 20000})
	if asTask.Err != nil {
		t.Fatal(asTask.Err)
	}
	if asTask.Task.Steps == 0 {
		t.Fatal("ModeTask override ignored")
	}
}

func TestDoTiming(t *testing.T) {
	perfect := Do(Run{Workload: "boolmin", Spec: "perfect", TimingSteps: 20000})
	if perfect.Err != nil {
		t.Fatal(perfect.Err)
	}
	if perfect.Timing.Cycles == 0 || perfect.Timing.IPC() <= 0 {
		t.Fatalf("empty timing result: %+v", perfect.Timing)
	}
	real := Do(Run{Workload: "boolmin", Spec: stdSpec, Mode: ModeTiming, TimingSteps: 20000})
	if real.Err != nil {
		t.Fatal(real.Err)
	}
	if real.Timing.IPC() > perfect.Timing.IPC() {
		t.Fatalf("real predictor IPC %.3f beats the perfect oracle %.3f",
			real.Timing.IPC(), perfect.Timing.IPC())
	}
}

func TestDoFaultedTaskRun(t *testing.T) {
	res := Do(Run{Workload: "exprc", Spec: stdSpec, Fault: "all=0.01,seed=9", MaxSteps: 30000})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Faulted || res.Injection.TotalInjected() == 0 {
		t.Fatalf("injection did not fire: faulted=%v stats=%+v", res.Faulted, res.Injection)
	}
	base := Do(Run{Workload: "exprc", Spec: stdSpec, MaxSteps: 30000})
	if res.Task.Steps != base.Task.Steps {
		t.Fatalf("faulted run scored %d steps, fault-free %d", res.Task.Steps, base.Task.Steps)
	}
}

func TestDoRejects(t *testing.T) {
	cases := []struct {
		name string
		run  Run
		want string
	}{
		{"unknown workload", Run{Workload: "nope", Spec: stdSpec, MaxSteps: 100}, "nope"},
		{"bad spec", Run{Workload: "exprc", Spec: "warp9", MaxSteps: 100}, "spec"},
		{"bad fault spec", Run{Workload: "exprc", Spec: stdSpec, Fault: "chaos", MaxSteps: 100}, "fault"},
		{"fault on exit run", Run{Workload: "exprc", Spec: "path:d7-o5-l6-c6-f3:leh2", Fault: "all=0.1,seed=1", MaxSteps: 100}, "cannot inject"},
		{"perfect as task replay", Run{Workload: "exprc", Spec: "perfect", Mode: ModeTask, MaxSteps: 100}, "timing"},
	}
	for _, c := range cases {
		res := Do(c.run)
		if res.Err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(res.Err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, res.Err, c.want)
		}
	}
}

// TestDoSpecRouting pins the speculative-update support matrix: spec
// runs work in exit, task (cached and streamed) and timing modes, and
// every unsupported combination comes back as a typed
// *UnsupportedError — never a silently idealized run.
func TestDoSpecRouting(t *testing.T) {
	exit := Do(Run{Workload: "exprc", Spec: "path:d7-o5-l6-c6-f3:leh2:dlat4:spec", MaxSteps: 20000})
	if exit.Err != nil {
		t.Fatal(exit.Err)
	}
	if exit.Exit.Steps == 0 || exit.Exit.Rollbacks == 0 {
		t.Fatalf("spec exit run did not roll back: %+v", exit.Exit)
	}

	task := Do(Run{Workload: "exprc", Spec: stdSpec + ":spec", MaxSteps: 20000})
	if task.Err != nil {
		t.Fatal(task.Err)
	}
	if task.Task.Steps == 0 || task.Task.Rollbacks == 0 {
		t.Fatalf("spec task run did not roll back: %+v", task.Task)
	}
	streamed := Do(Run{Workload: "exprc", Spec: stdSpec + ":spec", MaxSteps: 20000, Stream: true})
	if streamed.Err != nil {
		t.Fatal(streamed.Err)
	}
	if streamed.Task.Steps != task.Task.Steps || streamed.Task.Rollbacks != task.Task.Rollbacks {
		t.Fatalf("streamed spec run diverges from cached: %+v vs %+v", streamed.Task, task.Task)
	}

	timing := Do(Run{Workload: "exprc", Spec: stdSpec + ":spec:rlat8", Mode: ModeTiming, TimingSteps: 20000})
	if timing.Err != nil {
		t.Fatal(timing.Err)
	}
	if timing.Timing.Rollbacks == 0 || timing.Timing.RepairCycles == 0 {
		t.Fatalf("spec timing run charged no repairs: %+v", timing.Timing)
	}

	rejected := []struct {
		name string
		run  Run
		want string
	}{
		{"spec target run", Run{Workload: "minilisp", Spec: "cttb:d7-o4-l4-c5-f3:spec", MaxSteps: 100},
			"speculative update"},
		{"spec faulted run", Run{Workload: "exprc", Spec: stdSpec + ":spec", Fault: "all=0.01,seed=1", MaxSteps: 100},
			"cannot inject"},
		{"streamed timing run", Run{Workload: "exprc", Spec: "perfect", Stream: true, TimingSteps: 100},
			"timing"},
		{"streamed faulted run", Run{Workload: "exprc", Spec: stdSpec, Fault: "all=0.01,seed=1", Stream: true, MaxSteps: 100},
			"cannot inject"},
	}
	for _, c := range rejected {
		res := Do(c.run)
		if res.Err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var ue *UnsupportedError
		if !errors.As(res.Err, &ue) {
			t.Errorf("%s: error %v is not an *UnsupportedError", c.name, res.Err)
		}
		if !strings.Contains(res.Err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, res.Err, c.want)
		}
	}
}

// TestDoTimingRejectsFaultedPerfect is the regression test for the
// silent fault-spec drop: a timing run under the perfect predictor has no
// predictor state to corrupt, and used to ignore a non-empty fault spec
// without error (Result.Faulted stayed false). It must refuse, like the
// replay modes do.
func TestDoTimingRejectsFaultedPerfect(t *testing.T) {
	res := Do(Run{Workload: "exprc", Spec: "perfect", Fault: "all=0.01,seed=3", TimingSteps: 2000})
	if res.Err == nil {
		t.Fatalf("faulted perfect timing run accepted: faulted=%v", res.Faulted)
	}
	if !strings.Contains(res.Err.Error(), "perfect timing") {
		t.Errorf("error %q does not name the perfect-timing conflict", res.Err)
	}
	if res.Faulted {
		t.Error("Faulted set on a rejected run")
	}

	// Control: a real predictor in timing mode still injects.
	ok := Do(Run{Workload: "exprc", Spec: stdSpec, Mode: ModeTiming, Fault: "all=0.01,seed=3", TimingSteps: 2000})
	if ok.Err != nil {
		t.Fatal(ok.Err)
	}
	if !ok.Faulted {
		t.Error("faulted timing run with a real predictor did not inject")
	}
}
