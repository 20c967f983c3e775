package multiscalar_test

// Differential oracle for speculative-update mode: spec runs must be
// deterministic across the resolved, unresolved, block, and streamed
// replay paths and across engine worker counts, and with a resolution
// lag of zero they must be byte-identical to the idealized evaluators
// (a committed speculative update trains exactly what the idealized
// update would have).

import (
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

var specEquivExitSpecs = []string{
	"path:d7-o5-l6-c6-f3:leh2",
	"path:d2-o4-l5-c5:vc2rand:seed7",
	"global:d7-c14-i14:leh2",
	"per:d7-h12-t14-i14:leh2",
	"ipath:d7:leh2",
}

var specEquivTaskSpecs = []string{
	"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3",
	"composed:ipath:d7:leh2:ras32:icttb:d7",
	"composed:path:d7-o5-l6-c6-f3:leh2:noras",
	"cttb:d7-o4-l4-c5-f3",
}

// TestSpecReplayEquivalence: every spec-mode evaluator path agrees
// exactly, per workload, at zero and positive lag.
func TestSpecReplayEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, rt := equivTrace(t, name)
			c := equivColumnar(t, name)
			for _, lag := range []int{0, 3} {
				for _, spec := range specEquivExitSpecs {
					slow, err := core.EvaluateExitSpecUnresolved(tr, engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					fast, err := core.EvaluateExitSpecResolved(rt, engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					blocks, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(slow, fast) || !reflect.DeepEqual(slow, blocks) {
						t.Errorf("exit %s lag %d: paths disagree:\n unresolved %+v\n resolved   %+v\n blocks     %+v",
							spec, lag, slow, fast, blocks)
					}
				}
				for _, spec := range specEquivTaskSpecs {
					slow, err := core.EvaluateTaskSpecUnresolved(tr, engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					fast, err := core.EvaluateTaskSpecResolved(rt, engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					blocks, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(slow, fast) || !reflect.DeepEqual(slow, blocks) {
						t.Errorf("task %s lag %d: paths disagree:\n unresolved %+v\n resolved   %+v\n blocks     %+v",
							spec, lag, slow, fast, blocks)
					}
				}
			}
			// A generated-on-the-fly stream must replay identically too.
			src, err := workload.StreamBlocks(name, equivSteps, 1)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := core.EvaluateExitSpecBlocks(src, engine.MustBuildExit(specEquivExitSpecs[0]), 3)
			if err != nil {
				t.Fatalf("stream spec replay: %v", err)
			}
			cached, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(specEquivExitSpecs[0]), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, cached) {
				t.Errorf("streamed %+v != cached columnar %+v", streamed, cached)
			}
		})
	}
}

// TestSpecLagZeroIsIdealized: with rlat0 and no resolution lag, a spec
// replay is byte-identical to the idealized evaluator on every workload
// (only the rollback accounting, which idealized mode leaves at zero,
// may differ). The default 32-deep RAS never wraps on these workloads,
// so repairs restore it exactly.
func TestSpecLagZeroIsIdealized(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, _ := equivTrace(t, name)
			for _, spec := range specEquivExitSpecs {
				ideal := core.EvaluateExit(tr, engine.MustBuildExit(spec))
				got, err := core.EvaluateExitSpec(tr, engine.MustBuildExit(spec), 0)
				if err != nil {
					t.Fatalf("exit %s: %v", spec, err)
				}
				got.Rollbacks, got.RepairFrames = 0, 0
				if !reflect.DeepEqual(ideal, got) {
					t.Errorf("exit %s: lag-0 spec diverges:\n ideal %+v\n spec  %+v", spec, ideal, got)
				}
			}
			for _, spec := range specEquivTaskSpecs {
				ideal := core.EvaluateTask(tr, engine.MustBuild(spec))
				got, err := core.EvaluateTaskSpec(tr, engine.MustBuild(spec), 0)
				if err != nil {
					t.Fatalf("task %s: %v", spec, err)
				}
				if got.RASDamage != 0 {
					t.Errorf("task %s: %d damaged RAS repairs at lag 0 (stack wrapped?)", spec, got.RASDamage)
				}
				got.Rollbacks, got.RepairFrames, got.RASDamage = 0, 0, 0
				if !reflect.DeepEqual(ideal, got) {
					t.Errorf("task %s: lag-0 spec diverges:\n ideal %+v\n spec  %+v", spec, ideal, got)
				}
			}
		})
	}
}

// TestSpecWorkerCountDeterminism: an engine grid of spec runs is
// byte-identical at any worker count, streamed runs included.
func TestSpecWorkerCountDeterminism(t *testing.T) {
	var runs []engine.Run
	for _, spec := range []string{
		"path:d7-o5-l6-c6-f3:leh2:dlat4:spec",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8",
		"composed:ipath:d7:leh2:dlat2:ras32:icttb:d7:spec",
	} {
		runs = append(runs,
			engine.Run{Workload: "exprc", Spec: spec, MaxSteps: 20000},
			engine.Run{Workload: "exprc", Spec: spec, MaxSteps: 20000, Stream: true},
		)
	}
	one := engine.Execute(runs, 1)
	four := engine.Execute(runs, 4)
	for i := range one {
		if one[i].Err != nil {
			t.Fatalf("run %d (%s): %v", i, runs[i].Spec, one[i].Err)
		}
		if !reflect.DeepEqual(one[i].Exit, four[i].Exit) || !reflect.DeepEqual(one[i].Task, four[i].Task) {
			t.Errorf("run %d (%s): results differ across worker counts", i, runs[i].Spec)
		}
	}
}

// TestSpecTimingOracle: perfect:spec is exactly perfect (a nil predictor
// has no state to speculate), and a real predictor with rlat0 times
// identically to its idealized self apart from the rollback accounting.
func TestSpecTimingOracle(t *testing.T) {
	const steps = 20000
	perfect := engine.Do(engine.Run{Workload: "boolmin", Spec: "perfect", TimingSteps: steps})
	perfectSpec := engine.Do(engine.Run{Workload: "boolmin", Spec: "perfect:spec:rlat8", TimingSteps: steps})
	if perfect.Err != nil || perfectSpec.Err != nil {
		t.Fatal(perfect.Err, perfectSpec.Err)
	}
	if !reflect.DeepEqual(perfect.Timing, perfectSpec.Timing) {
		t.Errorf("perfect:spec diverges from perfect:\n %+v\n %+v", perfect.Timing, perfectSpec.Timing)
	}

	std := "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"
	ideal := engine.Do(engine.Run{Workload: "boolmin", Spec: std, Mode: engine.ModeTiming, TimingSteps: steps})
	spec := engine.Do(engine.Run{Workload: "boolmin", Spec: std + ":spec", Mode: engine.ModeTiming, TimingSteps: steps})
	if ideal.Err != nil || spec.Err != nil {
		t.Fatal(ideal.Err, spec.Err)
	}
	if spec.Timing.Rollbacks == 0 {
		t.Error("spec timing run reports no rollbacks")
	}
	got := spec.Timing
	got.Rollbacks, got.RepairCycles = 0, 0
	if !reflect.DeepEqual(ideal.Timing, got) {
		t.Errorf("rlat0 spec timing diverges from idealized:\n ideal %+v\n spec  %+v", ideal.Timing, got)
	}

	// A non-zero repair latency must cost cycles.
	slow := engine.Do(engine.Run{Workload: "boolmin", Spec: std + ":spec:rlat64", Mode: engine.ModeTiming, TimingSteps: steps})
	if slow.Err != nil {
		t.Fatal(slow.Err)
	}
	if slow.Timing.Cycles <= spec.Timing.Cycles {
		t.Errorf("rlat64 (%d cycles) not slower than rlat0 (%d cycles)",
			slow.Timing.Cycles, spec.Timing.Cycles)
	}
	if want := uint64(slow.Timing.Rollbacks) * 64; slow.Timing.RepairCycles != want {
		t.Errorf("RepairCycles = %d, want rollbacks×64 = %d", slow.Timing.RepairCycles, want)
	}
}

// specProbeExit is a stateless SpecExitPredictor: it isolates the
// session and kernel overhead from predictor-table population, the same
// role probeExit plays for the idealized kernels. It mispredicts every
// non-zero exit, so the session's repair path runs constantly.
type specProbeExit struct{ n int }

func (p *specProbeExit) Name() string                         { return "spec-probe-exit" }
func (p *specProbeExit) PredictExit(t *tfg.Task) int          { p.n++; return 0 }
func (p *specProbeExit) UpdateExit(t *tfg.Task, exit int)     {}
func (p *specProbeExit) Reset()                               { p.n = 0 }
func (p *specProbeExit) States() int                          { return p.n }
func (p *specProbeExit) SpecUpdateExit(t *tfg.Task, exit int) {}
func (p *specProbeExit) MarkExit() core.SpecMark              { return 0 }
func (p *specProbeExit) RepairExit(core.SpecMark)             {}
func (p *specProbeExit) CommitExit(core.SpecMark)             {}

// specProbeTask is the SpecTaskPredictor analog (last-target predictor).
type specProbeTask struct{ last isa.Addr }

func (p *specProbeTask) Name() string { return "spec-probe-task" }
func (p *specProbeTask) Predict(t *tfg.Task) core.Prediction {
	return core.Prediction{Exit: 0, Target: p.last}
}
func (p *specProbeTask) Update(t *tfg.Task, o core.Outcome)         { p.last = o.Target }
func (p *specProbeTask) Reset()                                     { p.last = 0 }
func (p *specProbeTask) SpecUpdate(t *tfg.Task, pr core.Prediction) { p.last = pr.Target }
func (p *specProbeTask) MarkTask() core.TaskMark                    { return core.TaskMark{} }
func (p *specProbeTask) RepairTask(core.TaskMark) bool              { return false }
func (p *specProbeTask) CommitTask(core.TaskMark)                   {}

// TestSpecBlockReplayAllocationBound pins the spec-mode allocation
// contract two ways. With stateless probes, a spec replay of tens of
// thousands of rollback-heavy steps costs only the constant session
// setup (window ring + cursor) — never per-step or per-rollback
// allocations. With a real predictor, spec mode allocates no more than
// idealized mode does with the same predictor (both populate the same
// PHT after Reset; the undo log is a reusable ring the predictor owns).
func TestSpecBlockReplayAllocationBound(t *testing.T) {
	c := equivColumnar(t, "exprc")

	ep := &specProbeExit{}
	if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), ep, 4); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), ep, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("EvaluateExitSpecBlocks: %.1f allocs per %d-step replay, want <= 8 (session + cursor)", allocs, c.Len())
	}

	tp := &specProbeTask{}
	if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), tp, 4); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(3, func() {
		if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), tp, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("EvaluateTaskSpecBlocks: %.1f allocs per %d-step replay, want <= 16 (session + cursor + ByKind map)", allocs, c.Len())
	}

	// Real predictor: spec-mode allocations are bounded by idealized-mode
	// ones plus the constant session setup. Warm both predictors first so
	// the undo ring's one-time growth is out of the measurement.
	const specStr = "path:d7-o5-l6-c6-f3:leh2"
	ideal := engine.MustBuildExit(specStr)
	spec := engine.MustBuildExit(specStr)
	if _, err := core.EvaluateExitBlocks(c.Blocks(), ideal); err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), spec, 4); err != nil {
		t.Fatal(err)
	}
	idealAllocs := testing.AllocsPerRun(3, func() { core.EvaluateExitBlocks(c.Blocks(), ideal) })
	specAllocs := testing.AllocsPerRun(3, func() { core.EvaluateExitSpecBlocks(c.Blocks(), spec, 4) })
	if specAllocs > idealAllocs+8 {
		t.Errorf("spec replay allocates %.0f, idealized %.0f: speculation must not add per-step allocations",
			specAllocs, idealAllocs)
	}
}
