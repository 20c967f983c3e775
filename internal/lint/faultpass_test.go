package lint

import (
	"strings"
	"testing"
)

// faultDiags runs only the cfg-fault pass over a bare config context.
func faultDiags(cfg *PredictorConfig) []Diagnostic {
	return runCfgFault(&Context{Config: cfg})
}

func TestCfgFaultSkipsWhenUnconfigured(t *testing.T) {
	if got := runCfgFault(&Context{}); got != nil {
		t.Fatalf("nil config produced %v", got)
	}
	if got := faultDiags(&PredictorConfig{}); got != nil {
		t.Fatalf("empty spec produced %v", got)
	}
}

func TestCfgFaultParseError(t *testing.T) {
	diags := faultDiags(&PredictorConfig{FaultSpec: "ctr=banana"})
	if len(diags) != 1 || diags[0].Check != CheckFaultSpec || diags[0].Sev != Error {
		t.Fatalf("unparseable spec: %v, want one %s error", diags, CheckFaultSpec)
	}
}

func TestCfgFaultDisabledSpec(t *testing.T) {
	diags := faultDiags(&PredictorConfig{FaultSpec: "off"})
	if len(diags) != 1 || diags[0].Sev != Info || !strings.Contains(diags[0].Msg, "injection off") {
		t.Fatalf("disabled spec: %v", diags)
	}
}

func TestCfgFaultCleanSpec(t *testing.T) {
	diags := faultDiags(&PredictorConfig{PredSpec: stdSpec, FaultSpec: "all=1e-3,seed=7"})
	if len(diags) != 1 || diags[0].Sev != Info || !strings.Contains(diags[0].Msg, "5 kinds enabled") {
		t.Fatalf("clean spec: %v, want a single summary info", diags)
	}
}

func TestCfgFaultExtremeRate(t *testing.T) {
	diags := faultDiags(&PredictorConfig{PredSpec: stdSpec, FaultSpec: "ctr=0.9"})
	found := false
	for _, d := range diags {
		if d.Sev == Warn && strings.Contains(d.Msg, "graceful degradation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("rate 0.9 not flagged: %v", diags)
	}
}
