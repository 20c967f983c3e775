// Fault-spec configuration pass: validates fault-injection spec strings
// before a run spends hours injecting noise. Whether each enabled fault
// kind has a structure to hit is cfg-pred-spec's check, which sees the
// structures the predictor spec builds.
package lint

import (
	"fmt"

	"multiscalar/internal/fault"
)

// CheckFaultSpec is the check ID of the fault-spec configuration pass.
const CheckFaultSpec = "cfg-fault-spec"

func faultPasses() []Pass {
	return []Pass{{
		Name: "cfg-fault",
		Doc:  "fault-injection spec parses, and every enabled fault kind has a matching predictor structure",
		Run:  runCfgFault,
	}}
}

// runCfgFault validates the raw fault spec: a spec that does not parse is
// an error (the run would refuse it anyway — fail at lint time instead);
// rates past 0.5 warn (beyond graceful degradation — the predictor is
// mostly noise).
func runCfgFault(c *Context) []Diagnostic {
	if c.Config == nil || c.Config.FaultSpec == "" {
		return nil
	}
	spec, err := fault.ParseSpec(c.Config.FaultSpec)
	if err != nil {
		return []Diagnostic{{
			Check: CheckFaultSpec, Sev: Error,
			Msg: fmt.Sprintf("fault spec %q: %v", c.Config.FaultSpec, err),
		}}
	}
	if !spec.Enabled() {
		return []Diagnostic{{
			Check: CheckFaultSpec, Sev: Info,
			Msg: fmt.Sprintf("fault spec %q enables no fault kind (injection off)", c.Config.FaultSpec),
		}}
	}

	var out []Diagnostic
	warn := func(format string, args ...any) {
		out = append(out, Diagnostic{Check: CheckFaultSpec, Sev: Warn, Msg: fmt.Sprintf(format, args...)})
	}
	for _, k := range fault.Kinds() {
		if r := spec.Rate[k]; r > 0.5 {
			warn("%s rate %g exceeds 0.5: beyond graceful degradation, the predictor is mostly noise", k, r)
		}
	}
	out = append(out, Diagnostic{
		Check: CheckFaultSpec, Sev: Info,
		Msg: fmt.Sprintf("fault spec %v parsed: %d kinds enabled, seed %d", spec, enabledKinds(spec), spec.Seed),
	})
	return out
}

// enabledKinds counts the fault kinds with non-zero rates.
func enabledKinds(s fault.Spec) int {
	n := 0
	for _, r := range s.Rate {
		if r > 0 {
			n++
		}
	}
	return n
}
