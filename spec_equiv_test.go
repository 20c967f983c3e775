package multiscalar_test

// Differential checks of speculative-update mode across replay paths:
// spec runs must agree between streamed and cached blocks, across
// engine worker counts, and between block replay and the timing model,
// and with a resolution lag of zero they must be byte-identical to the
// idealized kernels (a committed speculative update trains exactly what
// the idealized update would have). The kernels themselves are held to
// an independent reference model in internal/core
// (TestSpecKernelsMatchReference).

import (
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/sim/timing"
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

// TestSpecReplayEquivalence: a spec replay of a block stream generated
// on the fly agrees exactly with one over the cached columns, per
// workload, at zero and positive lag.
func TestSpecReplayEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := equivColumnar(t, name)
			for _, lag := range []int{0, 3} {
				for _, spec := range specEquivExitSpecs {
					src, err := workload.StreamBlocks(name, equivSteps, 1)
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := core.EvaluateExitSpecBlocks(src, engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					cached, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(spec), lag)
					if err != nil {
						t.Fatalf("exit %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(streamed, cached) {
						t.Errorf("exit %s lag %d: paths disagree:\n streamed %+v\n cached   %+v",
							spec, lag, streamed, cached)
					}
				}
				for _, spec := range specEquivTaskSpecs {
					src, err := workload.StreamBlocks(name, equivSteps, 1)
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := core.EvaluateTaskSpecBlocks(src, engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					cached, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(spec), lag)
					if err != nil {
						t.Fatalf("task %s lag %d: %v", spec, lag, err)
					}
					if !reflect.DeepEqual(streamed, cached) {
						t.Errorf("task %s lag %d: paths disagree:\n streamed %+v\n cached   %+v",
							spec, lag, streamed, cached)
					}
				}
			}
		})
	}
}

// TestSpecLagZeroIsIdealized: with rlat0 and no resolution lag, a spec
// replay is byte-identical to the idealized kernel on every workload
// (only the rollback accounting, which idealized mode leaves at zero,
// may differ). The default 32-deep RAS never wraps on these workloads,
// so repairs restore it exactly.
func TestSpecLagZeroIsIdealized(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := equivColumnar(t, name)
			for _, spec := range specEquivExitSpecs {
				ideal, err := core.EvaluateExitBlocks(c.Blocks(), engine.MustBuildExit(spec))
				if err != nil {
					t.Fatalf("exit %s: %v", spec, err)
				}
				got, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(spec), 0)
				if err != nil {
					t.Fatalf("exit %s: %v", spec, err)
				}
				got.Rollbacks, got.RepairFrames = 0, 0
				if !reflect.DeepEqual(ideal, got) {
					t.Errorf("exit %s: lag-0 spec diverges:\n ideal %+v\n spec  %+v", spec, ideal, got)
				}
			}
			for _, spec := range specEquivTaskSpecs {
				ideal, err := core.EvaluateTaskBlocks(c.Blocks(), engine.MustBuild(spec))
				if err != nil {
					t.Fatalf("task %s: %v", spec, err)
				}
				got, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(spec), 0)
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
	execute := func(workers int) []engine.Result {
		p := engine.NewPool(workers, 0, 0, 0)
		defer p.Close()
		return p.Execute(runs)
	}
	one, four := execute(1), execute(4)
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

// TestSpecTimingMatchesBlockReplay: the timing model no longer drives a
// predictor; it reads the outcome column of the same speculative task
// kernel EvaluateTaskSpecBlocks runs, so over the same prefix of the
// same program its mispredicts and rollbacks equal block replay's by
// construction. The test holds that construction — the column reaches
// the ring model whole — and that the model charges rlat cycles per
// rollback bit of the column. A session at lag > 0 can repair once
// after the last task: Rollbacks counts that repair, but no dispatch
// waits for it (DESIGN §15), so it costs no cycles. The minilisp case at
// lag 4 over 60,000 steps ends with such a repair, and the test requires
// that some case does.
func TestSpecTimingMatchesBlockReplay(t *testing.T) {
	type tc struct {
		workload string
		steps    int
		spec     string
	}
	var cases []tc
	for _, name := range []string{"boolmin", "minilisp"} {
		for _, spec := range []string{
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat0",
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8",
			"composed:path:d7-o5-l6-c6-f3:leh2:dlat4:ras8:cttb:d7-o4-l4-c5-f3:spec:rlat8",
			"composed:ipath:d7:leh2:dlat2:ras32:icttb:d7:spec:rlat0",
		} {
			cases = append(cases, tc{name, 20000, spec})
		}
	}
	cases = append(cases, tc{"minilisp", 60000,
		"composed:path:d7-o5-l6-c6-f3:leh2:dlat4:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8"})

	tailRepairs := 0
	for _, k := range cases {
		w, err := workload.ByName(k.workload)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		c, err := workload.CachedColumnar(k.workload, k.steps)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := engine.Parse(k.spec)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := timing.Run(g, engine.MustBuild(k.spec), timing.Config{
			MaxSteps: k.steps, SpecUpdate: true, SpecLag: sp.SpecLag(), RepairLatency: sp.RepairLat()})
		if err != nil {
			t.Fatalf("%s %s: %v", k.workload, k.spec, err)
		}
		col := core.NewOutcomeColumn(c.Len())
		replayed, err := core.EvaluateTaskSpecBlocksInto(c.Blocks(), engine.MustBuild(k.spec), sp.SpecLag(), col)
		if err != nil {
			t.Fatalf("%s %s: %v", k.workload, k.spec, err)
		}
		if timed.Rollbacks == 0 {
			t.Errorf("%s %s: no rollbacks", k.workload, k.spec)
		}
		if timed.TaskMispredicts != replayed.Misses || timed.Rollbacks != replayed.Rollbacks {
			t.Errorf("%s %s: timing %d misses / %d rollbacks, block replay %d / %d",
				k.workload, k.spec, timed.TaskMispredicts, timed.Rollbacks, replayed.Misses, replayed.Rollbacks)
		}
		_, rollbackBits := columnCounts(col)
		if rollbackBits < replayed.Rollbacks {
			tailRepairs++
		}
		if want := uint64(rollbackBits) * uint64(sp.RepairLat()); timed.RepairCycles != want {
			t.Errorf("%s %s: RepairCycles = %d, want rollback bits×rlat = %d×%d",
				k.workload, k.spec, timed.RepairCycles, rollbackBits, sp.RepairLat())
		}
	}
	if tailRepairs == 0 {
		t.Error("no case repairs after its last task; the after-last-task accounting goes unchecked")
	}
}

// TestSpecBlockReplayAllocationBound pins the spec-mode allocation
// contract two ways. With warmed built-in predictors, a spec replay of
// tens of thousands of rollback-heavy steps costs only the constant
// session setup (session, window ring and cursor; a composed
// predictor's RAS.Reset clears its rings in place) — never per-step or
// per-rollback allocations. And spec mode
// allocates no more than idealized mode does with the same predictor
// (both populate the same PHT after Reset; the undo log is a reusable
// ring the predictor owns).
func TestSpecBlockReplayAllocationBound(t *testing.T) {
	c := equivColumnar(t, "exprc")

	// Each predictor is warmed by one run first, so its undo ring and
	// ideal tables have grown and the measured runs reuse them.
	// A caller's outcome column costs nothing.
	col := core.NewOutcomeColumn(c.Len())
	for _, spec := range []string{"path:d7-o5-l6-c6-f3:leh2", "ipath:d7:leh2", "global:d7-c14-i14:leh2"} {
		p := engine.MustBuildExit(spec)
		if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), p, 4); err != nil {
			t.Fatal(err)
		}
		for _, col := range []core.OutcomeColumn{nil, col} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := core.EvaluateExitSpecBlocksInto(c.Blocks(), p, 4, col); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Errorf("EvaluateExitSpecBlocksInto %s (column %v): %.1f allocs per %d-step replay, want <= 8 (session + cursor)",
					spec, col != nil, allocs, c.Len())
			}
		}
	}
	for _, spec := range []string{"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3", "cttb:d7-o4-l4-c5-f3"} {
		p := engine.MustBuild(spec)
		if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), p, 4); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), p, 4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("EvaluateTaskSpecBlocks %s: %.1f allocs per %d-step replay, want <= 3 (session + window + cursor)", spec, allocs, c.Len())
		}
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
