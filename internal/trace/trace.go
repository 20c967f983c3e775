// Package trace defines the dynamic task trace: the sequence of task
// steps a program's execution produces, which is the input every predictor
// study replays.
//
// Recording the trace once and replaying it over many predictor
// configurations reproduces the paper's functional-simulation methodology
// exactly (predictions never alter execution; updates are immediate and
// non-speculative) while letting a single execution feed whole parameter
// sweeps.
package trace

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// HaltExit marks the final step of a trace, where the task halted rather
// than exiting; it is not a prediction event.
const HaltExit = int8(-1)

// Step is one dynamic task execution.
type Step struct {
	// Task is the start address of the executed task.
	Task isa.Addr
	// Exit is the exit index actually taken, or HaltExit on the final
	// step.
	Exit int8
	// Target is the start address of the next task (zero after a halt).
	Target isa.Addr
}

// Trace is a dynamic task trace bound to the TFG it was produced from:
// the array-of-structs form the functional simulator emits and the
// reference replays walk. Replay proper runs over its columnar encoding
// (Columnar). Traces are shared read-only across concurrent replays.
type Trace struct {
	Graph *tfg.Graph
	Steps []Step
}

// Len returns the number of dynamic task steps, including the final halt
// step.
func (tr *Trace) Len() int { return len(tr.Steps) }

// Halted reports whether the trace ends in a halt step, i.e. it records
// a run to completion rather than one cut off by a step cap.
func (tr *Trace) Halted() bool {
	n := len(tr.Steps)
	return n > 0 && tr.Steps[n-1].Exit == HaltExit
}

// PredictionSteps returns the number of steps that are prediction events
// (all but a trailing halt step).
func (tr *Trace) PredictionSteps() int {
	n := len(tr.Steps)
	if n > 0 && tr.Steps[n-1].Exit == HaltExit {
		n--
	}
	return n
}

// Validate cross-checks every step against the TFG: the task must exist,
// the exit index must be valid, and statically-known exit targets must
// match the recorded target.
func (tr *Trace) Validate() error {
	for i, s := range tr.Steps {
		t := tr.Graph.TaskAt(s.Task)
		if t == nil {
			return fmt.Errorf("trace: step %d: no task @%d", i, s.Task)
		}
		if s.Exit == HaltExit {
			if i != len(tr.Steps)-1 {
				return fmt.Errorf("trace: step %d: halt before end of trace", i)
			}
			continue
		}
		if int(s.Exit) >= len(t.Exits) {
			return fmt.Errorf("trace: step %d: task @%d exit %d of %d", i, s.Task, s.Exit, len(t.Exits))
		}
		spec := t.Exits[s.Exit]
		if spec.HasTarget && spec.Target != s.Target {
			return fmt.Errorf("trace: step %d: task @%d exit %d target @%d != header @%d",
				i, s.Task, s.Exit, s.Target, spec.Target)
		}
		if tr.Graph.TaskAt(s.Target) == nil {
			return fmt.Errorf("trace: step %d: target @%d is not a task", i, s.Target)
		}
	}
	return nil
}

// DistinctTasks returns the number of distinct static tasks appearing in
// the trace (the "Distinct Tasks Seen" column of the paper's Table 2).
func (tr *Trace) DistinctTasks() int {
	seen := make(map[isa.Addr]bool)
	for _, s := range tr.Steps {
		seen[s.Task] = true
	}
	return len(seen)
}

// DynamicExitHistogram returns, indexed by exit count 0..tfg.MaxExits,
// how many dynamic task steps executed a task with that many exit points
// (the dynamic series of the paper's Figure 3).
func (tr *Trace) DynamicExitHistogram() [tfg.MaxExits + 1]int {
	var h [tfg.MaxExits + 1]int
	for _, s := range tr.Steps {
		h[len(tr.Graph.TaskAt(s.Task).Exits)]++
	}
	return h
}

// DynamicExitKinds returns the count of dynamic exits taken, by control
// kind (the dynamic series of the paper's Figure 4).
func (tr *Trace) DynamicExitKinds() map[isa.ControlKind]int {
	m := make(map[isa.ControlKind]int)
	for _, s := range tr.Steps {
		if s.Exit == HaltExit {
			continue
		}
		m[tr.Graph.TaskAt(s.Task).Exits[s.Exit].Kind]++
	}
	return m
}
