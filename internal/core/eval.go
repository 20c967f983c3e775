package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// ExitResult summarizes an exit-prediction study (Figures 6, 7, 10, 11).
type ExitResult struct {
	Name   string
	Steps  int // prediction events
	Misses int // exit mispredictions
	States int // distinct predictor states touched (Figure 11)

	// Speculative-update accounting; zero in idealized mode.
	Rollbacks    int // mispredict repairs (undo-log drains)
	RepairFrames int // total in-flight frames squashed across repairs
}

// MissRate returns the exit miss rate in [0,1].
func (r ExitResult) MissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Steps)
}

// The evaluators in this file are the reference replays: they walk an
// array-of-structs trace and resolve each step's task through the TFG
// map as they go. Production replay runs the block kernels of
// evalblocks.go over the columnar encoding; these loops are the
// differential-testing oracle the kernels are checked against, kept as
// plain as possible so a reader can verify them by eye.

// EvaluateExitUnresolved replays a trace through an exit predictor,
// scoring every prediction step. The predictor is Reset first.
func EvaluateExitUnresolved(tr *trace.Trace, p ExitPredictor) ExitResult {
	p.Reset()
	res := ExitResult{Name: p.Name()}
	for _, s := range tr.Steps {
		if s.Exit == trace.HaltExit {
			continue
		}
		t := tr.Graph.TaskAt(s.Task)
		pred := p.PredictExit(t)
		res.Steps++
		if pred != int(s.Exit) {
			res.Misses++
		}
		p.UpdateExit(t, int(s.Exit))
	}
	res.States = p.States()
	recordExitResult(res)
	return res
}

// TargetResult summarizes a target-buffer study (Figures 8, 12): address
// prediction accuracy over the dynamic steps whose actual exit is an
// indirect branch or indirect call.
type TargetResult struct {
	Name   string
	Steps  int // indirect-exit steps scored
	Misses int // wrong or missing target predictions
	States int
}

// MissRate returns the address miss rate over indirect exits in [0,1].
func (r TargetResult) MissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Steps)
}

// EvaluateIndirectUnresolved replays a trace through a target buffer,
// scoring and training it only on steps whose actual exit is indirect
// (the paper's §5.3 / §6.4.1 methodology: the buffer serves indirect
// exits; other exit types are handled by the header and RAS and do not
// compete for buffer space). The buffer's path history still advances on
// every step.
func EvaluateIndirectUnresolved(tr *trace.Trace, b TargetBuffer) TargetResult {
	b.Reset()
	res := TargetResult{Name: b.Name()}
	for _, s := range tr.Steps {
		if s.Exit != trace.HaltExit {
			t := tr.Graph.TaskAt(s.Task)
			if t.Exits[s.Exit].Kind.IsIndirect() {
				res.Steps++
				if got, ok := b.Lookup(s.Task); !ok || got != s.Target {
					res.Misses++
				}
				b.Train(s.Task, s.Target)
			}
		}
		b.Advance(s.Task)
	}
	res.States = b.States()
	recordTargetResult(res)
	return res
}

// TaskResult summarizes a full task-prediction study (Table 3): the
// predicted next-task address versus the actual one, with a breakdown of
// misses by the actual exit's control kind.
type TaskResult struct {
	Name       string
	Steps      int
	ExitMisses int // wrong exit number (meaningful for header predictors)
	Misses     int // wrong next-task address — the paper's task miss rate
	// ByKind breaks Steps and Misses down by the actual exit's control
	// kind (a kind no step took reads zero).
	ByKind [isa.NumControlKinds]KindMisses

	// Speculative-update accounting; zero in idealized mode. Rollbacks
	// counts full-outcome mismatches and so can exceed Misses (a right
	// target reached through the wrong exit still rolls back).
	Rollbacks    int
	RepairFrames int
	RASDamage    int // repairs where wrong-path pushes clobbered live RAS entries
}

// KindMisses is the per-control-kind accounting of a TaskResult.
type KindMisses struct {
	Steps  int
	Misses int
}

// MissRate returns the overall task (address) miss rate in [0,1].
func (r TaskResult) MissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Steps)
}

// ExitMissRate returns the exit miss rate component in [0,1].
func (r TaskResult) ExitMissRate() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.ExitMisses) / float64(r.Steps)
}

// EvaluateTaskUnresolved replays a trace through a full task predictor,
// scoring the predicted next-task address on every prediction step.
func EvaluateTaskUnresolved(tr *trace.Trace, p TaskPredictor) TaskResult {
	p.Reset()
	res := TaskResult{Name: p.Name()}
	for _, s := range tr.Steps {
		if s.Exit == trace.HaltExit {
			continue
		}
		t := tr.Graph.TaskAt(s.Task)
		pred := p.Predict(t)
		res.Steps++
		km := &res.ByKind[t.Exits[s.Exit].Kind]
		km.Steps++
		if pred.Exit >= 0 && pred.Exit != int(s.Exit) {
			res.ExitMisses++
		}
		if pred.Target != s.Target {
			res.Misses++
			km.Misses++
		}
		p.Update(t, Outcome{Exit: int(s.Exit), Target: s.Target})
	}
	recordTaskResult(res)
	return res
}
