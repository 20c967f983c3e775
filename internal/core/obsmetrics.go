package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
)

// Core-layer metrics: the predictor-behaviour counters the paper reasons
// about (exit mispredicts by exit class, RAS traffic and over/underflow,
// CTTB hits/misses/conflicts), accumulated process-wide across every
// evaluation behind an obs.On() guard. Evaluation results are computed
// from per-run locals and only mirrored into these counters afterwards,
// so observability can never perturb a result.
var (
	obsExitSteps  = obs.Default().Counter("core.exit.predictions")
	obsExitMisses = obs.Default().Counter("core.exit.mispredicts")

	obsTargetSteps  = obs.Default().Counter("core.target.predictions")
	obsTargetMisses = obs.Default().Counter("core.target.mispredicts")

	obsTaskSteps      = obs.Default().Counter("core.task.steps")
	obsTaskMisses     = obs.Default().Counter("core.task.misses")
	obsTaskExitMisses = obs.Default().Counter("core.task.exit_misses")

	obsRASPushes     = obs.Default().Counter("core.ras.pushes")
	obsRASPops       = obs.Default().Counter("core.ras.pops")
	obsRASOverflows  = obs.Default().Counter("core.ras.overflows")
	obsRASUnderflows = obs.Default().Counter("core.ras.underflows")

	obsCTTBHits    = obs.Default().Counter("core.cttb.hits")
	obsCTTBMisses  = obs.Default().Counter("core.cttb.misses")
	obsCTTBAliases = obs.Default().Counter("core.cttb.aliases")

	// Speculative-update repair traffic. Rollbacks/repair nanos are
	// recorded live inside the sessions (behind obs.On()); the
	// frame/damage totals are additionally mirrored from results so
	// batch runs aggregate like every other core counter.
	obsSpecRollbacks    = obs.Default().Counter("core.spec.rollbacks")
	obsSpecRepairFrames = obs.Default().Counter("core.spec.repair_frames")
	obsSpecRASDamage    = obs.Default().Counter("core.spec.ras_damage")
	obsSpecRepairNanos  = obs.Default().Counter("core.spec.repair_ns")

	// Per-exit-class task-prediction accounting ("core.task.steps_branch",
	// "core.task.miss_indirect_call", ...), indexed by isa.ControlKind.
	// KindNone never appears as an actual exit and stays nil.
	obsKindSteps  [isa.NumControlKinds]*obs.Counter
	obsKindMisses [isa.NumControlKinds]*obs.Counter
)

func init() {
	for k := isa.KindBranch; int(k) < isa.NumControlKinds; k++ {
		obsKindSteps[k] = obs.Default().Counter("core.task.steps_" + k.String())
		obsKindMisses[k] = obs.Default().Counter("core.task.miss_" + k.String())
	}
}

// recordExitResult mirrors an exit-replay result into the counters.
func recordExitResult(r ExitResult) {
	if !obs.On() {
		return
	}
	obsExitSteps.Add(int64(r.Steps))
	obsExitMisses.Add(int64(r.Misses))
	obsSpecRepairFrames.Add(int64(r.RepairFrames))
}

// recordTargetResult mirrors a target-replay result into the counters.
func recordTargetResult(r TargetResult) {
	if !obs.On() {
		return
	}
	obsTargetSteps.Add(int64(r.Steps))
	obsTargetMisses.Add(int64(r.Misses))
}

// recordTaskResult mirrors a task-replay result, including the
// per-exit-class breakdown, into the counters.
func recordTaskResult(r TaskResult) {
	if !obs.On() {
		return
	}
	obsTaskSteps.Add(int64(r.Steps))
	obsTaskMisses.Add(int64(r.Misses))
	obsTaskExitMisses.Add(int64(r.ExitMisses))
	obsSpecRepairFrames.Add(int64(r.RepairFrames))
	obsSpecRASDamage.Add(int64(r.RASDamage))
	for kind, km := range r.ByKind {
		if obsKindSteps[kind] == nil {
			continue
		}
		obsKindSteps[kind].Add(int64(km.Steps))
		obsKindMisses[kind].Add(int64(km.Misses))
	}
}
