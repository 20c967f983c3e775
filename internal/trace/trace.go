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
// reference replays walk. Replay, validation and the trace analytics run
// over its columnar encoding (Columnar, built by FromTrace or an
// Encoder), which checks every step against the graph. Traces are shared
// read-only across concurrent replays.
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
