package engine_test

import (
	"fmt"
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
)

// TestDoAgreesWithResolve holds engine.Do to the one admission check
// over every spec the experiment grids use (plus perfect, a :spec target
// buffer and a bare exit spec) crossed with every mode, streaming on and
// off, and fault injection on and off: each run either succeeds or
// fails with exactly the error Resolve reports for it, so no refusal is
// left to a later layer and no admitted run fails.
func TestDoAgreesWithResolve(t *testing.T) {
	const budget = 300
	specs := append(experiments.AllSpecs(),
		"perfect",
		"cttb:d7-o4-l4-c5-f3:spec",
		"path:d7-o5-l6-c6-f3:leh2",
	)
	modes := []engine.Mode{engine.ModeAuto, engine.ModeExit, engine.ModeTarget, engine.ModeTask, engine.ModeTiming}
	admitted, refused := 0, 0
	for _, spec := range specs {
		sp := engine.MustParse(spec)
		for _, mode := range modes {
			for _, stream := range []bool{false, true} {
				for _, fault := range []string{"", "all=0.01"} {
					r := engine.Run{Workload: "boolmin", Spec: spec, Mode: mode, Stream: stream, Fault: fault}
					if mode == engine.ModeTiming || mode == engine.ModeAuto && sp.Class() == engine.ClassPerfect {
						r.TimingSteps = budget
					} else {
						r.MaxSteps = budget
					}
					at := fmt.Sprintf("%s mode=%s stream=%v fault=%q", spec, mode, stream, fault)
					_, _, want := engine.Resolve(r)
					got := engine.Do(r).Err
					switch {
					case want == nil && got != nil:
						admitted++
						t.Errorf("%s: admitted run fails: %v", at, got)
					case want == nil:
						admitted++
					case got == nil || got.Error() != want.Error() || fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want):
						t.Errorf("%s: Do error %v (%T), Resolve refused with %v (%T)", at, got, got, want, want)
					default:
						refused++
					}
				}
			}
		}
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("matrix admitted %d and refused %d runs; want both", admitted, refused)
	}
}
