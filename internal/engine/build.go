package engine

import (
	"fmt"

	"multiscalar/internal/core"
)

// BuildExit constructs the spec's exit predictor component from its
// kind's row. In speculative-update mode the exit's dlat<k> becomes the
// spec session's resolution lag instead of a core.DelayedUpdate wrapper
// (the wrapper cannot checkpoint, and the session already models the
// delay).
func (s *Spec) BuildExit() (core.ExitPredictor, error) {
	if !s.HasExit() {
		return nil, fmt.Errorf("engine: spec %q has no exit predictor", s)
	}
	p, err := s.exit.kind.exit(&s.exit.part)
	if err != nil {
		return nil, err
	}
	if lag := s.exit.flags[flagDLat]; lag > 0 && !s.specUpdate {
		p = core.NewDelayedUpdate(p, lag)
	}
	return p, nil
}

// BuildTarget constructs the spec's target buffer component from its
// kind's row.
func (s *Spec) BuildTarget() (core.TargetBuffer, error) {
	if !s.HasTarget() {
		return nil, fmt.Errorf("engine: spec %q has no target buffer", s)
	}
	return s.buf.kind.buf(&s.buf.part)
}

// BuildTask constructs a full task predictor from the spec. A
// ClassTarget spec builds as a CTTB-only predictor; ClassPerfect returns
// (nil, nil), the timing model's always-correct predictor; a bare
// ClassExit spec is an error — wrap it in composed: to say explicitly
// which RAS and buffer (if any) ride along.
func (s *Spec) BuildTask() (core.TaskPredictor, error) {
	switch s.class {
	case ClassPerfect:
		return nil, nil
	case ClassExit:
		return nil, fmt.Errorf("engine: exit-only spec %q cannot build a task predictor (wrap it in composed:)", s)
	}
	var buf core.TargetBuffer
	if s.HasTarget() {
		var err error
		if buf, err = s.BuildTarget(); err != nil {
			return nil, err
		}
	}
	if s.class == ClassTarget {
		return core.NewCTTBOnly(buf), nil
	}
	exit, err := s.BuildExit()
	if err != nil {
		return nil, err
	}
	var ras *core.RAS
	if s.rasDepth > 0 {
		ras = core.NewRAS(s.rasDepth)
	}
	return core.NewHeaderPredictor(s.String(), exit, ras, buf), nil
}

// Build parses a spec string and constructs its task predictor — the
// one-call path for CLIs and harnesses.
func Build(spec string) (core.TaskPredictor, error) {
	sp, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return sp.BuildTask()
}

// must returns v, panicking on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// MustParse is Parse, panicking on error (for compile-time-constant
// specs).
func MustParse(s string) *Spec { return must(Parse(s)) }

// MustBuild is Build, panicking on error.
func MustBuild(spec string) core.TaskPredictor { return must(Build(spec)) }

// MustBuildExit parses a spec string and constructs its exit predictor,
// panicking on error.
func MustBuildExit(spec string) core.ExitPredictor { return must(MustParse(spec).BuildExit()) }

// MustBuildTarget parses a spec string and constructs its target buffer,
// panicking on error.
func MustBuildTarget(spec string) core.TargetBuffer { return must(MustParse(spec).BuildTarget()) }
