package engine

import (
	"fmt"

	"multiscalar/internal/fault"
)

// Resolve is the engine's one admission check. It parses the run's
// predictor and fault specs, resolves ModeAuto from the spec's class,
// and returns every combination the engine refuses as an
// *UnsupportedError — without constructing a predictor, so front ends
// can validate a run at the cost of a parse. Parse errors come back as
// Parse and fault.ParseSpec report them. The spec and resolved mode are
// returned whenever the spec parses, so a refused run can still be
// labelled. Step budgets are checked last, as a *BudgetError; the
// workload name is not checked here.
func Resolve(r Run) (*Spec, Mode, error) {
	sp, _, mode, err := resolve(r)
	return sp, mode, err
}

// resolve is Resolve, also returning the parsed fault spec for run.
func resolve(r Run) (*Spec, fault.Spec, Mode, error) {
	sp, err := Parse(r.Spec)
	if err != nil {
		return nil, fault.Spec{}, r.Mode, err
	}
	mode := r.Mode
	if mode == ModeAuto {
		switch sp.Class() {
		case ClassExit:
			mode = ModeExit
		case ClassTarget:
			mode = ModeTarget
		case ClassTask:
			mode = ModeTask
		case ClassPerfect:
			mode = ModeTiming
		}
	}
	fs, err := fault.ParseSpec(r.Fault)
	if err != nil {
		return sp, fs, mode, err
	}
	return sp, fs, mode, admit(sp, fs, mode, r)
}

// admit returns the refusal for a parsed run configuration, or nil when
// the engine can run it.
func admit(sp *Spec, fs fault.Spec, mode Mode, r Run) error {
	if mode < ModeExit || mode > ModeTiming {
		return fmt.Errorf("engine: unknown mode %s", mode)
	}
	if fs.Enabled() && mode != ModeTask && mode != ModeTiming {
		return &UnsupportedError{Feature: "fault injection",
			Reason: fmt.Sprintf("wraps a task predictor; %s runs cannot inject", mode)}
	}

	// Speculative update (the :spec flag) drives exit/task prediction
	// sessions and the timing model; every other combination is refused
	// explicitly so a spec run is never silently idealized.
	if sp.SpecUpdate() {
		if mode == ModeTarget {
			return &UnsupportedError{Feature: "speculative update",
				Reason: "target replay has no prediction-time training to speculate; spec applies to exit, task and timing runs"}
		}
		if fs.Enabled() {
			return &UnsupportedError{Feature: "fault injection",
				Reason: "the injector wrapper cannot checkpoint predictor state; speculative-update runs cannot inject"}
		}
	}

	if r.Stream && mode == ModeTiming {
		return &UnsupportedError{Feature: "streaming replay",
			Reason: "the timing model walks static code with the trace memo's branch column, which a block stream does not record; timing runs cannot stream"}
	}
	if r.Stream && fs.Enabled() {
		return &UnsupportedError{Feature: "streaming replay",
			Reason: "faulted runs checksum the resident trace columns, which a stream never holds; streaming runs cannot inject"}
	}

	if sp.Class() == ClassPerfect {
		if mode != ModeTiming {
			return &UnsupportedError{Feature: "perfect predictor",
				Reason: "only meaningful in timing runs (it has no replayable state)"}
		}
		// The perfect predictor is the timing model's built-in oracle:
		// there is no predictor state to corrupt, so a fault spec would
		// silently do nothing.
		if fs.Enabled() {
			return &UnsupportedError{Feature: "fault injection",
				Reason: "wraps a task predictor; perfect timing runs have no predictor state to inject into"}
		}
	}

	// The spec must carry the component the mode evaluates.
	switch {
	case mode == ModeExit && !sp.HasExit():
		return &UnsupportedError{Feature: "exit replay",
			Reason: fmt.Sprintf("spec %s has no exit predictor", sp)}
	case mode == ModeTarget && !sp.HasTarget():
		return &UnsupportedError{Feature: "target replay",
			Reason: fmt.Sprintf("spec %s has no target buffer", sp)}
	case (mode == ModeTask || mode == ModeTiming) && sp.Class() == ClassExit:
		return &UnsupportedError{Feature: fmt.Sprintf("%s run", mode),
			Reason: fmt.Sprintf("exit-only spec %s builds no task predictor (wrap it in composed:)", sp)}
	}

	// Each step budget bounds one kind of run. A budget the mode would
	// ignore, or a negative one, is refused rather than silently
	// dropped or read as "no limit".
	switch {
	case r.MaxSteps < 0:
		return &BudgetError{Budget: "MaxSteps", Reason: fmt.Sprintf("%d is negative (0 = the full trace)", r.MaxSteps)}
	case r.TimingSteps < 0:
		return &BudgetError{Budget: "TimingSteps", Reason: fmt.Sprintf("%d is negative (0 = the timing model's default)", r.TimingSteps)}
	case mode == ModeTiming && r.MaxSteps != 0:
		return &BudgetError{Budget: "MaxSteps", Reason: "truncates replay traces; timing runs are bounded by TimingSteps"}
	case mode != ModeTiming && r.TimingSteps != 0:
		return &BudgetError{Budget: "TimingSteps", Reason: fmt.Sprintf("bounds timing runs; %s runs are bounded by MaxSteps", mode)}
	}
	return nil
}
