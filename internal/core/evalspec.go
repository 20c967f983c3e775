package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// Speculative-update replay: the evaluators below mirror the idealized
// block kernels of evalblocks.go, with each predictor call routed
// through a SpecExitSession / SpecTaskSession so training happens at
// prediction time with the predicted outcome and mispredicts repair
// through the undo log. Scoring is unchanged — a step's prediction is
// scored against its actual outcome exactly as in idealized mode — so a
// spec result differs from the idealized one only through wrong-path
// training and delayed resolution, never through different bookkeeping.
// specref_test.go checks both against a reference model that restores
// whole state instead of undo-logging it.
//
// With lag 0 every result is byte-identical to the idealized evaluator
// (modulo the Rollbacks/RepairFrames accounting, which idealized mode
// leaves at zero); the equivalence is pinned by test over every
// workload × spec family. All loops stay allocation-free per step: the
// session window and undo rings are preallocated and repair is a
// bounded in-place drain.

// EvaluateExitSpecBlocks replays a block source (cached columns or a
// stream) through an exit predictor in speculative-update mode with the
// given resolution lag. The predictor is Reset first.
func EvaluateExitSpecBlocks(src trace.BlockSource, p ExitPredictor, lag int) (ExitResult, error) {
	p.Reset()
	s, err := NewSpecExitSession(p, lag)
	if err != nil {
		return ExitResult{}, err
	}
	res := ExitResult{Name: p.Name()}
	steps, misses := 0, 0
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		entries := b.Dict.Entries
		taskIdx, exits := b.TaskIdx, b.Exits
		for i := 0; i < b.N; i++ {
			e := exits[i]
			if e == trace.HaltExit {
				continue
			}
			ent := &entries[taskIdx[i]]
			pred := s.step(ent.Task, ent.Addr, int(ent.NumExits), int(e))
			steps++
			if pred != int(e) {
				misses++
			}
		}
	}
	s.Finish()
	res.Steps, res.Misses = steps, misses
	res.States = p.States()
	res.Rollbacks, res.RepairFrames = s.Rollbacks(), s.RepairFrames()
	recordExitResult(res)
	return res, nil
}

// EvaluateTaskSpecBlocks replays a block source through a full task
// predictor in speculative-update mode.
func EvaluateTaskSpecBlocks(src trace.BlockSource, p TaskPredictor, lag int) (TaskResult, error) {
	p.Reset()
	s, err := NewSpecTaskSession(p, lag)
	if err != nil {
		return TaskResult{}, err
	}
	res := TaskResult{Name: p.Name()}
	var byKind [isa.NumControlKinds]KindMisses
	steps, exitMisses, misses := 0, 0, 0
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		entries := b.Dict.Entries
		taskIdx, exits, targetIdx := b.TaskIdx, b.Exits, b.TargetIdx
		for i := 0; i < b.N; i++ {
			e := exits[i]
			if e == trace.HaltExit {
				continue
			}
			ent := &entries[taskIdx[i]]
			target := entries[targetIdx[i]].Addr
			pred := s.Step(ent.Task, Outcome{Exit: int(e), Target: target})
			steps++
			km := &byKind[ent.Kinds[e]]
			km.Steps++
			if pred.Exit >= 0 && pred.Exit != int(e) {
				exitMisses++
			}
			if pred.Target != target {
				misses++
				km.Misses++
			}
		}
	}
	s.Finish()
	res.Steps, res.ExitMisses, res.Misses = steps, exitMisses, misses
	res.ByKind = make(map[isa.ControlKind]KindMisses)
	for k := range byKind {
		if byKind[k].Steps > 0 {
			res.ByKind[isa.ControlKind(k)] = byKind[k]
		}
	}
	res.Rollbacks, res.RepairFrames, res.RASDamage = s.Rollbacks(), s.RepairFrames(), s.RASDamage()
	recordTaskResult(res)
	return res, nil
}
