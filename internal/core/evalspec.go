package core

import "multiscalar/internal/trace"

// Speculative-update replay: the evaluators below mirror the idealized
// block kernels of evalblocks.go, with each predictor call routed
// through a specExitSession / specTaskSession so training happens at
// prediction time with the predicted outcome and mispredicts repair
// through the undo log. Scoring is unchanged — a step's prediction is
// scored against its actual outcome through the same Tally as in
// idealized mode — so a spec result differs from the idealized one only
// through wrong-path training and delayed resolution, never through
// different bookkeeping.
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
	return EvaluateExitSpecBlocksInto(src, p, lag, nil)
}

// EvaluateExitSpecBlocksInto is EvaluateExitSpecBlocks that also records
// each step's outcome in col, with rollback bits as
// EvaluateTaskSpecBlocksInto sets them.
func EvaluateExitSpecBlocksInto(src trace.BlockSource, p ExitPredictor, lag int, col OutcomeColumn) (ExitResult, error) {
	p.Reset()
	s, err := newSpecExitSession(p, lag)
	if err != nil {
		return ExitResult{}, err
	}
	t := &Tally{col: col}
	err = t.replay(src, func(b *trace.Block) {
		entries := b.Dict.Entries
		exits := b.Exits[:b.N]
		taskIdx := b.TaskIdx[:len(exits)]
		for i, e := range exits {
			if e == trace.HaltExit {
				continue
			}
			ent := &entries[taskIdx[i]]
			before := s.rollbacks
			t.Step(i, s.step(ent.Task, ent.Addr, int(ent.NumExits), int(e)) != int(e))
			if s.rollbacks != before {
				t.mark(i, 1)
			}
		}
	})
	if err != nil {
		return ExitResult{Name: p.Name()}, err
	}
	s.finish()
	res := t.exitResult(p)
	res.Rollbacks, res.RepairFrames = s.rollbacks, s.repairFrames
	recordExitResult(res)
	return res, nil
}

// EvaluateTaskSpecBlocks replays a block source through a full task
// predictor in speculative-update mode.
func EvaluateTaskSpecBlocks(src trace.BlockSource, p TaskPredictor, lag int) (TaskResult, error) {
	return EvaluateTaskSpecBlocksInto(src, p, lag, nil)
}

// EvaluateTaskSpecBlocksInto is EvaluateTaskSpecBlocks that also records
// each step's outcome in col, which must cover the source's steps (a nil
// col records nothing). A step's rollback bit is set when the session's
// rollback count rose during that step; the repairs the session makes
// after the last step, resolving its window, are in the result's
// Rollbacks only.
func EvaluateTaskSpecBlocksInto(src trace.BlockSource, p TaskPredictor, lag int, col OutcomeColumn) (TaskResult, error) {
	p.Reset()
	s, err := newSpecTaskSession(p, lag)
	if err != nil {
		return TaskResult{}, err
	}
	t := &Tally{col: col}
	err = t.replay(src, func(b *trace.Block) {
		entries := b.Dict.Entries
		exits := b.Exits[:b.N]
		taskIdx, targetIdx := b.TaskIdx[:len(exits)], b.TargetIdx[:len(exits)]
		for i, e := range exits {
			if e == trace.HaltExit {
				continue
			}
			ent := &entries[taskIdx[i]]
			target := entries[targetIdx[i]].Addr
			before := s.rollbacks
			pred := s.step(ent.Task, Outcome{Exit: int(e), Target: target})
			t.Score(i, ent.Kinds[e], pred.Exit >= 0 && pred.Exit != int(e), pred.Target != target)
			if s.rollbacks != before {
				t.mark(i, 1)
			}
		}
	})
	if err != nil {
		return TaskResult{Name: p.Name()}, err
	}
	s.finish()
	res := t.taskResult(p.Name())
	res.Rollbacks, res.RepairFrames, res.RASDamage = s.rollbacks, s.repairFrames, s.rasDamage
	recordTaskResult(res)
	return res, nil
}
