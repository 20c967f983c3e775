package multiscalar_test

// Coverage of the fused speculative-update kernels: every built-in
// spec-capable family, driven by the block evaluators through its fused
// step, must reproduce the unresolved oracle — which drives the public
// Mark/SpecUpdate/Repair/Commit protocol — exactly, on every workload
// and at every resolution lag the spec workloads draw. The timing model
// is held to the same standard against a session over the public
// protocol.

import (
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/workload"
)

// kernelSteps truncates the kernel sweep's traces: 25 specs × 5 lags ×
// 5 workloads, each replayed twice, stay in seconds under -race while
// every workload still rolls back over a thousand times.
const kernelSteps = 20000

// kernelLags are the session lags (the dlat<k> values the workloads
// draw) plus lag 0, which resolves every step within itself.
var kernelLags = []int{0, 1, 2, 4, 8}

var kernelExitSpecs = []string{
	"path:d7-o5-l6-c6-f3:leh2",
	"path:d7-o5-l6-c6-f3:leh2:nosse",
	"path:d7-o5-l6-c6-f3:leh2:ssh",
	"path:d2-o4-l5-c5:vc2rand:seed7",
	"path:d11-o8-l10-c10-f5:vc3mru", // 80-bit older-field register
	"global:d7-c14-i14:leh2",
	"global:d4-c8-i10:vc3rand",
	"per:d7-h12-t14-i14:leh2",
	"per:d3-h8-t8-i10:vc2mru",
	"ipath:d7:leh2",
	"ipath:d3:vc3rand",
	"iglobal:d7:leh2",
	"iglobal:d2:vc2mru",
	"iper:d7:le",
	"iper:d4:vc2rand",
}

var kernelTaskSpecs = []string{
	"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3",
	"composed:path:d7-o5-l6-c6-f3:leh2:noras",
	"composed:path:d7-o5-l6-c6-f3:leh2:ssh:ras4:icttb:d7", // shallow RAS: damaged repairs
	"composed:ipath:d7:leh2:ras32:icttb:d7",
	"composed:global:d7-c14-i14:leh2:ras16:cttb:d5-o3-l6-c4-f2",
	"composed:iglobal:d4:vc2mru:ras8:cttb:d7-o4-l4-c5-f3",
	"composed:per:d7-h12-t14-i14:leh2:noras:icttb:d3",
	"composed:iper:d5:leh2:ras8:cttb:d3-o4-l4-c4-f1",
	"cttb:d7-o4-l4-c5-f3",
	"icttb:d7",
}

// TestSpecKernelsMatchProtocol compares each fused kernel with the
// public-protocol oracle: Steps, Misses, ExitMisses, ByKind, States,
// Rollbacks, RepairFrames and RASDamage must all agree.
func TestSpecKernelsMatchProtocol(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := workload.CachedColumnar(name, kernelSteps)
			if err != nil {
				t.Fatal(err)
			}
			tr := c.Materialize()
			for _, lag := range kernelLags {
				for _, spec := range kernelExitSpecs {
					oracle, err := core.EvaluateExitSpecUnresolved(tr, engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					fused, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(oracle, fused) {
						t.Errorf("exit %s lag %d: fused kernel diverges from the protocol:\n oracle %+v\n fused  %+v",
							spec, lag, oracle, fused)
					}
				}
				for _, spec := range kernelTaskSpecs {
					oracle, err := core.EvaluateTaskSpecUnresolved(tr, engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					fused, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(oracle, fused) {
						t.Errorf("task %s lag %d: fused kernel diverges from the protocol:\n oracle %+v\n fused  %+v",
							spec, lag, oracle, fused)
					}
				}
			}
		})
	}
}

// TestSpecKernelsExerciseRepairs guards the comparison above against
// vacuity: at positive lag the kernels must roll back and squash
// several frames, and the shallow RAS must report damaged repairs.
func TestSpecKernelsExerciseRepairs(t *testing.T) {
	c := equivColumnar(t, "exprc")
	for _, spec := range kernelExitSpecs {
		res, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(spec), 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rollbacks == 0 || res.RepairFrames <= res.Rollbacks {
			t.Errorf("exit %s: %d rollbacks, %d repair frames: the squash path never ran a window", spec, res.Rollbacks, res.RepairFrames)
		}
	}
	damaged := 0
	for _, spec := range kernelTaskSpecs {
		res, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(spec), 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rollbacks == 0 || res.RepairFrames <= res.Rollbacks {
			t.Errorf("task %s: %d rollbacks, %d repair frames: the squash path never ran a window", spec, res.Rollbacks, res.RepairFrames)
		}
		damaged += res.RASDamage
	}
	if damaged == 0 {
		t.Error("no task spec reported a damaged RAS repair")
	}
}

// protocolTask hides a built-in task predictor's fused kernel, so a
// session over it drives the public protocol.
type protocolTask struct{ core.SpecTaskPredictor }

// TestSpecTimingKernelMatchesProtocol: the timing model's session, run
// through the fused kernel, times every task exactly as the same session
// over the public protocol, with and without a repair latency.
func TestSpecTimingKernelMatchesProtocol(t *testing.T) {
	for _, name := range []string{"boolmin", "minilisp"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat0",
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8",
			"composed:path:d7-o5-l6-c6-f3:leh2:dlat4:ras8:cttb:d7-o4-l4-c5-f3:spec:rlat8",
			"composed:ipath:d7:leh2:dlat2:ras32:icttb:d7:spec:rlat0",
		} {
			sp, err := engine.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := timing.Config{MaxSteps: 20000, SpecUpdate: true, SpecLag: sp.SpecLag(), RepairLatency: sp.RepairLat()}
			fusedPred, err := sp.BuildTask()
			if err != nil {
				t.Fatal(err)
			}
			protoPred, err := sp.BuildTask()
			if err != nil {
				t.Fatal(err)
			}
			fused, err := timing.Run(g, fusedPred, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			proto, err := timing.Run(g, protocolTask{protoPred.(core.SpecTaskPredictor)}, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			if fused.Rollbacks == 0 {
				t.Errorf("%s %s: no rollbacks", name, spec)
			}
			if !reflect.DeepEqual(fused, proto) {
				t.Errorf("%s %s: fused timing diverges from the protocol:\n fused %+v\n proto %+v", name, spec, fused, proto)
			}
		}
	}
}
