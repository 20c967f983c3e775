// Configuration-layer passes: DOLC bit budgets and static alias pressure
// of the predictor spec's tables.
package lint

import (
	"fmt"

	"multiscalar/internal/core"
)

// Check IDs owned by the configuration layer. (cfg-ras-depth retired:
// the dataflow-backed tfg-call-depth pass owns RAS sizing now.)
const (
	CheckDOLCBudget    = "cfg-dolc-budget"
	CheckAliasPressure = "cfg-alias-pressure"
)

func configPasses() []Pass {
	return []Pass{
		{
			Name: "cfg-dolc",
			Doc:  "DOLC bit budget: the (D-1)·O+L+C intermediate bits and the index width they fold to",
			Run:  runCfgDOLC,
		},
		{
			Name: "cfg-alias",
			Doc:  "static alias pressure: multi-exit task population vs exit-PHT entries (per-site CTTB pressure moved to tfg-indirect-targets)",
			Run:  runCfgAlias,
		},
	}
}

// checkDOLC sizes one DOLC: how many intermediate bits fold to how wide
// an index (Figures 9–10). An invalid DOLC — dead history fields
// included — never gets here: engine.Parse rejects it, and
// cfg-pred-spec reports that.
func checkDOLC(what string, d core.DOLC) []Diagnostic {
	return []Diagnostic{{
		Check: CheckDOLCBudget, Sev: Info,
		Msg: fmt.Sprintf("%s DOLC %v: %d intermediate bits fold to a %d-bit index (%d entries)",
			what, d, d.IntermediateBits(), d.IndexBits(), d.TableSize()),
	}}
}

func runCfgDOLC(c *Context) []Diagnostic {
	sp := c.Config.spec()
	if sp == nil {
		return nil
	}
	var out []Diagnostic
	if d := sp.ExitDOLC(); d != nil {
		out = append(out, checkDOLC("exit predictor", *d)...)
	}
	if d := sp.CTTBDOLC(); d != nil {
		out = append(out, checkDOLC("CTTB", *d)...)
	}
	return out
}

// runCfgAlias estimates static alias pressure on the exit PHT: the
// multi-exit static task population against the table entries. Static
// counts are a lower bound — path history multiplies the live contexts
// — so exceeding the table statically guarantees aliasing dynamically.
// (CTTB pressure is judged per indirect site by tfg-indirect-targets,
// which knows each site's inferred target set.)
func runCfgAlias(c *Context) []Diagnostic {
	sp := c.Config.spec()
	if sp == nil || c.Graph == nil || c.Graph.NumTasks() == 0 {
		return nil
	}
	d := sp.ExitDOLC()
	if d == nil {
		return nil
	}
	multi := 0
	for _, t := range c.Graph.Tasks {
		if t.NumExits() > 1 {
			multi++
		}
	}
	entries := d.TableSize()
	dg := Diagnostic{
		Check: CheckAliasPressure, Sev: Info,
		Msg: fmt.Sprintf("exit predictor: %d static multi-exit tasks share %d entries", multi, entries),
	}
	if multi > entries {
		dg.Sev = Warn
		dg.Msg += "; static population alone exceeds the table, aliasing is guaranteed"
	}
	return []Diagnostic{dg}
}
