package lint

import (
	"strings"
	"testing"
)

const stdSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

// predSpecDiags runs only the cfg-pred-spec pass over a bare config
// context.
func predSpecDiags(cfg *PredictorConfig) []Diagnostic {
	return runCfgPredSpec(&Context{Config: cfg})
}

func TestCfgPredSpecSkipsWhenUnconfigured(t *testing.T) {
	if got := runCfgPredSpec(&Context{}); got != nil {
		t.Fatalf("nil config produced %v", got)
	}
	if got := predSpecDiags(&PredictorConfig{}); got != nil {
		t.Fatalf("empty spec produced %v", got)
	}
}

func TestCfgPredSpecParseError(t *testing.T) {
	diags := predSpecDiags(&PredictorConfig{PredSpec: "warp9"})
	if len(diags) != 1 || diags[0].Check != CheckPredSpec || diags[0].Sev != Error {
		t.Fatalf("unparseable spec: %v, want one %s error", diags, CheckPredSpec)
	}
}

func TestCfgPredSpecReportsCanonicalForm(t *testing.T) {
	// An unstated RAS resolves to the default depth; the info line shows
	// the resolved canonical spelling, not the input.
	diags := predSpecDiags(&PredictorConfig{
		PredSpec: "composed:path:d7-o5-l6-c6-f3:leh2:cttb:d7-o4-l4-c5-f3",
	})
	if len(diags) != 1 || diags[0].Sev != Info {
		t.Fatalf("clean spec: %v, want a single info", diags)
	}
	if !strings.Contains(diags[0].Msg, stdSpec) || !strings.Contains(diags[0].Msg, "task class") {
		t.Fatalf("info does not show canonical form and class: %q", diags[0].Msg)
	}
}

func TestCfgPredSpecFaultOnNonTaskClass(t *testing.T) {
	diags := predSpecDiags(&PredictorConfig{
		PredSpec:  "path:d7-o5-l6-c6-f3:leh2",
		FaultSpec: "all=0.01,seed=1",
	})
	var warned bool
	for _, d := range diags {
		if d.Sev == Warn && strings.Contains(d.Msg, "engine refuses the exit run") && strings.Contains(d.Msg, "cannot inject") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("exit-class spec with faults not flagged: %v", diags)
	}
}

func TestCfgPredSpecFaultStructureMismatch(t *testing.T) {
	// A composed predictor with no CTTB and no RAS: ttb and ras faults
	// have nothing to hit, ctr faults do.
	diags := predSpecDiags(&PredictorConfig{
		PredSpec:  "composed:path:d7-o5-l6-c6-f3:leh2:noras",
		FaultSpec: "ctr=0.01,ttb=0.01,ras=0.01",
	})
	warns := map[string]bool{}
	for _, d := range diags {
		if d.Check != CheckPredSpec {
			t.Fatalf("foreign check ID %q", d.Check)
		}
		if d.Sev == Warn {
			switch {
			case strings.Contains(d.Msg, "ttb faults"):
				warns["ttb"] = true
			case strings.Contains(d.Msg, "ras faults"):
				warns["ras"] = true
			case strings.Contains(d.Msg, "ctr faults"):
				warns["ctr"] = true
			}
		}
	}
	if !warns["ttb"] || !warns["ras"] || warns["ctr"] {
		t.Fatalf("wrong structure-mismatch warnings: %v", diags)
	}
}

func TestCfgPredSpecCleanFaultedConfig(t *testing.T) {
	diags := predSpecDiags(&PredictorConfig{PredSpec: stdSpec, FaultSpec: "all=1e-3,seed=7"})
	if len(diags) != 1 || diags[0].Sev != Info {
		t.Fatalf("fully matched spec pair: %v, want only the info line", diags)
	}
}

// TestCfgPredSpecReportsEngineRefusal: a spec the engine refuses in its
// own mode warns with the engine's reason, faults or not.
func TestCfgPredSpecReportsEngineRefusal(t *testing.T) {
	for _, c := range []struct{ spec, fault, want string }{
		{"cttb:d7-o4-l4-c5-f3:spec", "", "speculative update"},
		{stdSpec + ":spec", "all=0.01,seed=1", "speculative-update runs cannot inject"},
		{"perfect", "ctr=0.01", "perfect timing runs have no predictor state"},
	} {
		diags := predSpecDiags(&PredictorConfig{PredSpec: c.spec, FaultSpec: c.fault})
		if d := findDiag(diags, c.want); d == nil || d.Sev != Warn || d.Check != CheckPredSpec {
			t.Errorf("%s with faults %q: want a %s warning naming %q, got %v", c.spec, c.fault, CheckPredSpec, c.want, diags)
		}
	}
}

// TestPredSpecDrivesConfigPasses checks that the DOLC-based configuration
// passes take their inputs from the parsed spec — the spec is the single
// source of structural truth.
func TestPredSpecDrivesConfigPasses(t *testing.T) {
	_, g := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  ret
`)
	cfg := &PredictorConfig{PredSpec: stdSpec}
	dolc := runCfgDOLC(&Context{Config: cfg})
	if d := findDiag(dolc, "exit predictor DOLC 7-5-6-6(3)"); d == nil {
		t.Fatalf("exit DOLC not derived from spec: %v", dolc)
	}
	if d := findDiag(dolc, "CTTB DOLC 7-4-4-5(3)"); d == nil {
		t.Fatalf("CTTB DOLC not derived from spec: %v", dolc)
	}
	if d := findDiag(runTFGCallDepth(&Context{Graph: g, Config: cfg}), "32-entry RAS"); d == nil {
		t.Fatalf("RAS depth not derived from spec")
	}

	// An exit-only spec silences the RAS verdict of tfg-call-depth (no
	// returns are predicted, so no depth advice applies); the depth
	// profile info still reports.
	diags := runTFGCallDepth(&Context{Graph: g, Config: &PredictorConfig{PredSpec: "path:d7-o5-l6-c6-f3:leh2"}})
	if d := findDiag(diags, "verdict"); d != nil {
		t.Fatalf("RAS verdict fired for an exit-only spec: %v", d)
	}
	if d := findDiag(diags, "maximum static call depth"); d == nil {
		t.Fatalf("depth profile info missing for an exit-only spec: %v", diags)
	}
}
