package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// Speculative-update replay: the evaluators below mirror the idealized
// loops of eval.go (oracle) and evalblocks.go (kernels), with each
// predictor call routed through a SpecExitSession / SpecTaskSession so
// training happens at prediction time with the predicted outcome and
// mispredicts repair through the undo log. Scoring is unchanged — a
// step's prediction is scored against its actual outcome exactly as in
// idealized mode — so a spec result differs from the idealized one only
// through wrong-path training and delayed resolution, never through
// different bookkeeping.
//
// The block evaluators run the built-in predictors' fused kernels; the
// Unresolved oracles always drive the public Mark/SpecUpdate/Repair/
// Commit protocol, so the differential tests compare the two.
//
// With lag 0 every result is byte-identical to the idealized evaluator
// (modulo the Rollbacks/RepairFrames accounting, which idealized mode
// leaves at zero); the equivalence is pinned by test over every
// workload × spec family. All loops stay allocation-free per step: the
// session window and undo rings are preallocated and repair is a
// bounded in-place drain.

// EvaluateExitSpecUnresolved replays a trace through an exit predictor
// in speculative-update mode with the given resolution lag. The
// predictor is Reset first. It is the differential-testing oracle for
// EvaluateExitSpecBlocks.
func EvaluateExitSpecUnresolved(tr *trace.Trace, p ExitPredictor, lag int) (ExitResult, error) {
	p.Reset()
	s, err := newSpecExitSession(p, lag, false)
	if err != nil {
		return ExitResult{}, err
	}
	res := ExitResult{Name: p.Name()}
	for _, st := range tr.Steps {
		if st.Exit == trace.HaltExit {
			continue
		}
		t := tr.Graph.TaskAt(st.Task)
		pred := s.Step(t, int(st.Exit))
		res.Steps++
		if pred != int(st.Exit) {
			res.Misses++
		}
	}
	s.Finish()
	res.States = p.States()
	res.Rollbacks, res.RepairFrames = s.Rollbacks(), s.RepairFrames()
	recordExitResult(res)
	return res, nil
}

// EvaluateExitSpecBlocks replays a block source through an exit
// predictor in speculative-update mode: the production counterpart of
// EvaluateExitSpecUnresolved over cached columns or a stream.
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
			var pred int
			if s.kern != nil {
				pred = s.step(ent.Task, ent.Addr, int(ent.NumExits), int(e))
			} else {
				pred = s.Step(ent.Task, int(e))
			}
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

// EvaluateTaskSpecUnresolved replays a trace through a full task
// predictor in speculative-update mode with the given resolution lag:
// the differential-testing oracle for EvaluateTaskSpecBlocks.
func EvaluateTaskSpecUnresolved(tr *trace.Trace, p TaskPredictor, lag int) (TaskResult, error) {
	p.Reset()
	s, err := newSpecTaskSession(p, lag, false)
	if err != nil {
		return TaskResult{}, err
	}
	res := TaskResult{Name: p.Name(), ByKind: make(map[isa.ControlKind]KindMisses)}
	for _, st := range tr.Steps {
		if st.Exit == trace.HaltExit {
			continue
		}
		t := tr.Graph.TaskAt(st.Task)
		pred := s.Step(t, Outcome{Exit: int(st.Exit), Target: st.Target})
		res.Steps++
		kind := t.Exits[st.Exit].Kind
		km := res.ByKind[kind]
		km.Steps++
		if pred.Exit >= 0 && pred.Exit != int(st.Exit) {
			res.ExitMisses++
		}
		if pred.Target != st.Target {
			res.Misses++
			km.Misses++
		}
		res.ByKind[kind] = km
	}
	s.Finish()
	res.Rollbacks, res.RepairFrames, res.RASDamage = s.Rollbacks(), s.RepairFrames(), s.RASDamage()
	recordTaskResult(res)
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
