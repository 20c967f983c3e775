// Package core implements the paper's contribution: inter-task control
// flow prediction for Multiscalar processors.
//
// The package provides, layer by layer:
//
//   - prediction automata for the 4-way exit choice (§5.1): last-exit,
//     last-exit-with-hysteresis, and voting counters with MRU or random
//     tie-breaking;
//   - history generation schemes (§5.2): GLOBAL (exit-number history),
//     PER (per-task exit history) and PATH (task-address path history),
//     each as an ideal, alias-free predictor (exact keys, used for the
//     paper's limit studies) and — for PATH — as a real implementation
//     indexed by the DOLC folding scheme of §6 (Figure 9);
//   - target-address prediction (§5.3): a return address stack, and the
//     Task Target Buffer in both its naive (task-address-indexed TTB) and
//     correlated (path-indexed CTTB) forms, ideal and real;
//   - composed task predictors (§5.3–5.4): the header-based predictor
//     (exit predictor + header targets + RAS + CTTB) and the header-less
//     CTTB-only predictor of Table 3.
//
// All predictors follow the paper's functional-simulation methodology:
// updates are immediate and non-speculative, and the evaluation driver
// never runs past a mispredicted task, so no pollution modelling is
// needed (§3.1).
package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// Prediction is a predicted next-task step: which exit the current task
// will take, and the start address of the next task.
type Prediction struct {
	Exit   int
	Target isa.Addr
}

// Outcome is the actual, non-speculative result of a task execution.
type Outcome struct {
	Exit   int
	Target isa.Addr
}

// TaskPredictor predicts complete task steps (exit number and next task
// address). Predict is called once per dynamic task, before the outcome is
// known; Update is called immediately afterwards with the actual outcome.
type TaskPredictor interface {
	// Name identifies the predictor configuration in reports.
	Name() string
	// Predict returns the predicted next-task step for task t.
	Predict(t *tfg.Task) Prediction
	// Update trains the predictor with the actual outcome of task t.
	Update(t *tfg.Task, o Outcome)
	// Reset returns the predictor to its initial state.
	Reset()
}

// ExitPredictor predicts only the exit number of a task (the multi-way
// branching problem of §5.1–5.2). Implementations maintain their own
// history state internally.
type ExitPredictor interface {
	// Name identifies the predictor configuration in reports.
	Name() string
	// PredictExit returns the predicted exit index for task t, already
	// clamped to t's valid exit range.
	PredictExit(t *tfg.Task) int
	// UpdateExit trains the predictor with the actual exit taken.
	UpdateExit(t *tfg.Task, exit int)
	// Reset returns the predictor to its initial state.
	Reset()
	// States returns the number of distinct predictor states touched so
	// far (PHT entries for real predictors, unique contexts for ideal
	// ones) — the metric of the paper's Figure 11.
	States() int
}

// clampExit bounds a raw automaton prediction to the task's exit range.
// Aliased or untrained automata can emit exit numbers the current task
// does not have; hardware would resolve these against the 4-entry header,
// which we model by clamping.
func clampExit(exit int, t *tfg.Task) int { return clampExits(exit, t.NumExits()) }

// clampExits is clampExit against an exit count n, as the block kernels
// read it from the trace dictionary.
func clampExits(exit, n int) int {
	if exit >= n {
		if n == 0 {
			return 0
		}
		return n - 1
	}
	if exit < 0 {
		return 0
	}
	return exit
}
