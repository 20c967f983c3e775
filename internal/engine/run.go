package engine

import (
	"fmt"
	"runtime/debug"

	"multiscalar/internal/core"
	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// Mode selects how a run evaluates its spec.
type Mode uint8

const (
	// ModeAuto derives the mode from the spec's class: exit specs replay
	// exit prediction, target specs replay indirect-target prediction,
	// task specs replay full task prediction, and perfect runs the timing
	// model.
	ModeAuto Mode = iota
	// ModeExit replays exit prediction over every trace step.
	ModeExit
	// ModeTarget replays target prediction over indirect exits.
	ModeTarget
	// ModeTask replays full task (next-address) prediction.
	ModeTask
	// ModeTiming runs the ring timing model instead of a trace replay.
	ModeTiming
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExit:
		return "exit"
	case ModeTarget:
		return "target"
	case ModeTask:
		return "task"
	case ModeTiming:
		return "timing"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode is the inverse of Mode.String; the empty string is ModeAuto.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModeAuto, nil
	}
	for m := ModeAuto; m <= ModeTiming; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return ModeAuto, fmt.Errorf("engine: unknown mode %q (want auto, exit, target, task, or timing)", s)
}

// Run is one cell of an evaluation grid: one workload replayed under one
// predictor spec. The zero values of Mode, Fault, MaxSteps and
// TimingSteps mean auto-derived mode, no injection, the full trace, and
// the timing model's default budget. Each budget applies to one kind of
// run; Resolve refuses a negative budget or one the mode would ignore.
type Run struct {
	// Workload is the workload name (workload.ByName).
	Workload string
	// Spec is the predictor spec string (Parse).
	Spec string
	// Mode overrides the spec-derived evaluation mode (e.g. ModeTask to
	// evaluate a bare cttb: spec as a CTTB-only task predictor).
	Mode Mode
	// Fault is a fault-injection spec (fault.ParseSpec; "" = off). Only
	// task and timing runs can inject — the injector wraps a full task
	// predictor.
	Fault string
	// MaxSteps truncates the trace (0 = full; replay modes only, and
	// never negative).
	MaxSteps int
	// TimingSteps bounds the timing run (ModeTiming only, and never
	// negative; 0 = the timing model's default).
	TimingSteps int
	// Stream replays against a generated-on-the-fly block stream instead
	// of a cached trace: functional simulation pipelines into the replay
	// kernels and the full trace is never resident, so step counts can
	// exceed memory. Replay modes only; streaming runs cannot inject
	// faults (faulted runs checksum the resident trace columns).
	Stream bool
	// Label optionally names the run in formatted output; Result.Label
	// falls back to the canonical spec string.
	Label string
	// Status, when non-nil, receives live progress: the expected step
	// total once the trace length is known and per-block step credits as
	// the replay advances. It is a pure side channel — results are
	// byte-identical with or without it (the invariance test pins this).
	Status *obs.RunStatus
}

// Result is one run's outcome. Exactly one of Exit, Target, Task, Timing
// is meaningful, matching Mode; Err reports parse, build, run, or
// invariant failures (recovered panics come back as *fault.PanicError,
// never crash the scheduler).
type Result struct {
	// Run echoes the submitted run.
	Run Run
	// Spec is the parsed spec (nil when parsing failed).
	Spec *Spec
	// Mode is the mode Resolve resolved the run to (Run.Mode when the
	// spec did not parse).
	Mode Mode
	// Err is nil on success.
	Err error
	// Exit is the exit-prediction result (ModeExit).
	Exit core.ExitResult
	// Target is the indirect-target result (ModeTarget).
	Target core.TargetResult
	// Task is the task-prediction result (ModeTask).
	Task core.TaskResult
	// Timing is the ring-model result (ModeTiming).
	Timing timing.Result
	// Injection is the fault injector's activity (faulted runs).
	Injection fault.Stats
	// Faulted reports that injection was enabled.
	Faulted bool
}

// Label returns the run's display label: the explicit label when set,
// else the canonical spec string.
func (r *Result) Label() string {
	if r.Run.Label != "" {
		return r.Run.Label
	}
	if r.Spec != nil {
		return r.Spec.String()
	}
	return r.Run.Spec
}

// Do executes one run synchronously. All failure modes — unparseable
// specs, build errors, injection invariant violations, and panics inside
// a predictor — come back in Result.Err.
func Do(r Run) Result {
	res := Result{Run: r}
	res.Err = run(r, &res)
	return res
}

// run is Do's body; the named return lets the deferred recover convert
// predictor panics into structured errors.
func run(r Run, res *Result) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &fault.PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()

	sp, fs, mode, err := resolve(r)
	res.Spec, res.Mode = sp, mode
	if err != nil {
		return err
	}

	if mode == ModeTiming {
		// One kernel pass scores the predictor over the trace memo's
		// steps into an outcome column; one ring pass walks static code
		// from those steps, the memo's branch column and the outcome
		// column. A timing run grows the memo to its budget instead of
		// re-running the program.
		c, bits, err := workload.CachedBranches(r.Workload, r.TimingSteps)
		if err != nil {
			return err
		}
		r.Status.SetTotal(int64(c.Len()))
		cfg := timing.Config{
			MaxSteps:      r.TimingSteps,
			SpecUpdate:    sp.SpecUpdate(),
			SpecLag:       sp.SpecLag(),
			RepairLatency: sp.RepairLat(),
		}
		// The kernel's result stays out of res.Task: a timing run
		// reports Timing only.
		var col core.OutcomeColumn
		var task core.TaskResult
		err = scoreTask(sp, fs, c, res, func(p core.TaskPredictor) (int, error) {
			var err error
			col, task, err = timing.Outcomes(c, p, cfg)
			return task.Steps, err
		})
		if err != nil {
			return err
		}
		tres, err := timing.RunTrace(c, bits, col, cfg)
		if err != nil {
			return err
		}
		tres.Rollbacks = task.Rollbacks
		res.Timing = tres
		// The model reports no progress while it runs; credit the tasks
		// retired at the end.
		r.Status.AddSteps(int64(tres.Tasks))
		return nil
	}

	if r.Stream {
		// Pipelined generation→replay: the functional simulator produces
		// one block at a time and the kernels consume it; the full trace
		// is never resident.
		src, err := workload.StreamBlocks(r.Workload, r.MaxSteps, 1)
		if err != nil {
			return err
		}
		if r.MaxSteps > 0 {
			r.Status.SetTotal(int64(r.MaxSteps))
		}
		return ReplayBlocks(sp, mode, WithProgress(src, r.Status), res)
	}

	c, err := workload.CachedColumnar(r.Workload, r.MaxSteps)
	if err != nil {
		return err
	}
	r.Status.SetTotal(int64(c.Len()))
	src := WithProgress(c.Blocks(), r.Status)
	if fs.Enabled() {
		return scoreTask(sp, fs, c, res, func(p core.TaskPredictor) (int, error) {
			var err error
			res.Task, err = core.EvaluateTaskBlocks(src, p)
			return res.Task.Steps, err
		})
	}
	return ReplayBlocks(sp, mode, src, res)
}

// scoreTask builds the spec's task predictor and hands it to score,
// which runs it over c and returns the steps it scored. When fs injects
// faults the predictor is wrapped in the injector, whose activity lands
// in res, and the run is held to the recovery invariants. Panics are
// caught by run's recover and surface as *fault.PanicError.
func scoreTask(sp *Spec, fs fault.Spec, c *trace.Columnar, res *Result, score func(core.TaskPredictor) (int, error)) error {
	p, err := sp.BuildTask()
	if err != nil {
		return err
	}
	if !fs.Enabled() {
		_, err = score(p)
		return err
	}
	inj, err := fault.New(fs, p)
	if err != nil {
		return err
	}
	sum := fault.Checksum(c)
	scored, err := score(inj)
	if err != nil {
		return err
	}
	res.Injection, res.Faulted = inj.Stats(), true
	return checkRecovery(c, scored, sum)
}

// checkRecovery holds a faulted task or timing run over c to the
// recovery invariants: its kernel scored every prediction step of c,
// and the shared columns still hash to sum, their checksum before the
// run. The columns were valid against their TFG when they were encoded
// (a graph-bound Columnar is valid by construction), so an unchanged
// checksum proves they still are.
func checkRecovery(c *trace.Columnar, scored int, sum uint64) error {
	if want := c.PredictionSteps(); scored != want {
		return fmt.Errorf("engine: faulted run scored %d steps, oracle has %d", scored, want)
	}
	if fault.Checksum(c) != sum {
		return fmt.Errorf("engine: trace contents changed during faulted run")
	}
	return nil
}

// ReplayBlocks evaluates one replay-mode run through the block-wise
// kernels over any block source (columnar cache cursor or generated
// stream): speculative-update specs run the speculative session, every
// other spec the idealized kernel. sp and mode must come from an
// admitted Resolve, which guarantees the spec has the component the
// mode replays.
func ReplayBlocks(sp *Spec, mode Mode, src trace.BlockSource, res *Result) error {
	switch mode {
	case ModeExit:
		p, err := sp.BuildExit()
		if err != nil {
			return err
		}
		if sp.SpecUpdate() {
			res.Exit, err = core.EvaluateExitSpecBlocks(src, p, sp.SpecLag())
			return err
		}
		res.Exit, err = core.EvaluateExitBlocks(src, p)
		return err
	case ModeTarget:
		b, err := sp.BuildTarget()
		if err != nil {
			return err
		}
		res.Target, err = core.EvaluateIndirectBlocks(src, b)
		return err
	case ModeTask:
		p, err := sp.BuildTask()
		if err != nil {
			return err
		}
		if sp.SpecUpdate() {
			res.Task, err = core.EvaluateTaskSpecBlocks(src, p, sp.SpecLag())
			return err
		}
		res.Task, err = core.EvaluateTaskBlocks(src, p)
		return err
	}
	return fmt.Errorf("engine: block replay does not support mode %s", mode)
}
