package engine

// UnsupportedError reports a run configuration the engine recognizes but
// deliberately refuses: the combination is either physically meaningless
// (fault injection into the perfect oracle) or would silently degrade to
// a different model than the one requested (streaming a timing run). It
// exists so callers can distinguish "you asked for an unsupported
// combination" from parse, build, and runtime failures with errors.As,
// and so every refusal names both the feature and the reason instead of
// silently idealizing.
type UnsupportedError struct {
	// Feature is the run option that cannot be honoured ("fault
	// injection", "streaming replay", "speculative update", ...).
	Feature string
	// Reason explains the conflict in one sentence.
	Reason string
}

// Error implements the error interface.
func (e *UnsupportedError) Error() string {
	return "engine: " + e.Feature + ": " + e.Reason
}

// BudgetError reports a step budget the engine refuses: a negative one,
// or one the run's mode would ignore (MaxSteps on a timing run,
// TimingSteps on a replay run). Front ends map it to their own budget
// field with errors.As.
type BudgetError struct {
	// Budget names the refused Run field: "MaxSteps" or "TimingSteps".
	Budget string
	// Reason explains the refusal in one sentence.
	Reason string
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return "engine: " + e.Budget + ": " + e.Reason
}
