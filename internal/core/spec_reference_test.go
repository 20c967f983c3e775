package core_test

// The fused speculative-update kernels against the reference model of
// specref_test.go — which rebuilds architectural state from scratch on
// every squash instead of undo-logging it — on every workload, for
// every built-in family and option, at every resolution lag the spec
// workloads draw.

import (
	"reflect"
	"sync"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/workload"
)

// referenceSteps is each workload's trace prefix: about the shortest
// at which every spec still rolls back minReferenceRollbacks times at
// lag 4. The reference copies a predictor's tables on every squash, so
// its cost grows with the rollback count, and the workloads mispredict
// at rates several times apart.
var referenceSteps = map[string]int{
	"boolmin":   6000,
	"calcsheet": 12000,
	"compressb": 2000,
	"exprc":     2000,
	"minilisp":  3000,
}

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

// minReferenceRollbacks is the vacuity floor: every workload must roll
// back at least this often under every spec at lag 4.
const minReferenceRollbacks = 100

// TestSpecKernelsMatchReference compares each fused kernel with the
// reference model: the full ExitResult / TaskResult (Steps, Misses,
// ExitMisses, ByKind, States, Rollbacks, RepairFrames and RASDamage)
// must agree. A vacuity guard requires the comparison to cover real
// repairs: at least minReferenceRollbacks per workload and spec at lag
// 4, and at least one damaged RAS repair across the matrix.
func TestSpecKernelsMatchReference(t *testing.T) {
	var mu sync.Mutex
	ran, damaged := 0, 0
	t.Cleanup(func() {
		// The guard covers the whole matrix, not a -run filtered part.
		if ran == len(workload.Names()) && damaged == 0 {
			t.Error("no task spec reported a damaged RAS repair")
		}
	})
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			n := referenceSteps[name]
			if n == 0 {
				t.Fatalf("no reference prefix for workload %s", name)
			}
			c, err := workload.CachedColumnar(name, n)
			if err != nil {
				t.Fatal(err)
			}
			tr := c.Materialize()
			for _, lag := range kernelLags {
				for _, spec := range kernelExitSpecs {
					mk := func() core.ExitPredictor { return engine.MustBuildExit(spec) }
					want := core.ReferenceExitSpec(tr, mk, lag)
					got, err := core.EvaluateExitSpecBlocks(c.Blocks(), mk(), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("exit %s lag %d: fused kernel diverges from the reference:\n reference %+v\n fused     %+v",
							spec, lag, want, got)
					}
					if lag == 4 && got.Rollbacks < minReferenceRollbacks {
						t.Errorf("exit %s lag 4: %d rollbacks, want >= %d", spec, got.Rollbacks, minReferenceRollbacks)
					}
				}
				for _, spec := range kernelTaskSpecs {
					mk := func() core.TaskPredictor { return engine.MustBuild(spec) }
					want := core.ReferenceTaskSpec(tr, mk, lag)
					got, err := core.EvaluateTaskSpecBlocks(c.Blocks(), mk(), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("task %s lag %d: fused kernel diverges from the reference:\n reference %+v\n fused     %+v",
							spec, lag, want, got)
					}
					if lag == 4 && got.Rollbacks < minReferenceRollbacks {
						t.Errorf("task %s lag 4: %d rollbacks, want >= %d", spec, got.Rollbacks, minReferenceRollbacks)
					}
					mu.Lock()
					damaged += got.RASDamage
					mu.Unlock()
				}
			}
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}
}

// TestSpecKernelsExerciseRepairs: at lag 4 every fused kernel rolls
// back and squashes multi-frame windows over a full-length trace, and
// the shallow RAS reports damaged repairs there too.
func TestSpecKernelsExerciseRepairs(t *testing.T) {
	c, err := workload.CachedColumnar("exprc", 60000)
	if err != nil {
		t.Fatal(err)
	}
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
