// Predictor-spec configuration pass: validates engine predictor spec
// strings before a run builds hardware from them, reports the engine's
// refusal of the configured run, and cross-checks the fault-injection
// spec against the structures the predictor spec actually instantiates.
package lint

import (
	"errors"
	"fmt"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
)

// CheckPredSpec is the check ID of the predictor-spec configuration pass.
const CheckPredSpec = "cfg-pred-spec"

func predSpecPasses() []Pass {
	return []Pass{{
		Name: "cfg-pred-spec",
		Doc:  "predictor spec string parses, and every enabled fault kind targets a structure the spec builds",
		Run:  runCfgPredSpec,
	}}
}

// runCfgPredSpec validates the raw predictor spec. A spec that does not
// parse is an error (msim/mbench would refuse it anyway — fail at lint
// time instead); a parseable spec reports its canonical form so callers
// can see how the grammar resolved defaults. The engine's admission
// check (engine.Resolve) then judges the spec and fault spec together in
// the spec's own mode, and a refusal warns. When a fault spec is
// configured, each enabled fault kind is checked against the structures
// the predictor spec instantiates — an injection aimed at a structure
// that does not exist silently does nothing, which is almost always a
// misconfigured experiment.
func runCfgPredSpec(c *Context) []Diagnostic {
	if c.Config == nil || c.Config.PredSpec == "" {
		return nil
	}
	sp, mode, err := engine.Resolve(engine.Run{Spec: c.Config.PredSpec, Fault: c.Config.FaultSpec})
	if sp == nil {
		return []Diagnostic{{
			Check: CheckPredSpec, Sev: Error,
			Msg: err.Error(),
		}}
	}
	out := []Diagnostic{{
		Check: CheckPredSpec, Sev: Info,
		Msg: fmt.Sprintf("predictor spec parsed: %s (%s class)", sp, sp.Class()),
	}}
	warn := func(format string, args ...any) {
		out = append(out, Diagnostic{Check: CheckPredSpec, Sev: Warn, Msg: fmt.Sprintf(format, args...)})
	}
	var refused *engine.UnsupportedError
	if errors.As(err, &refused) {
		warn("the engine refuses the %s run of spec %s: %v", mode, sp, err)
		return out
	}
	fs, err := fault.ParseSpec(c.Config.FaultSpec)
	if err != nil || !fs.Enabled() {
		return out // cfg-fault-spec reports parse errors and no-op specs
	}
	// Admitted with faults enabled, so the spec is a composed task
	// predictor: it always has the exit PHT and history that ctr and hist
	// faults hit, and only the CTTB and RAS are optional.
	if fs.Rate[fault.KindTTB] > 0 && !sp.HasTarget() {
		warn("ttb faults at rate %g but spec %s builds no CTTB; entry clobbers will find no buffer", fs.Rate[fault.KindTTB], sp)
	}
	if fs.Rate[fault.KindRAS] > 0 && sp.RASDepth() <= 0 {
		warn("ras faults at rate %g but spec %s builds no RAS", fs.Rate[fault.KindRAS], sp)
	}
	return out
}
