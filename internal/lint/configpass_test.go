package lint

import (
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// TestCheckDOLCInvalid: an invalid DOLC cannot reach the budget pass —
// engine.Parse rejects the spec, cfg-pred-spec reports the error, and
// cfg-dolc-budget stays silent.
func TestCheckDOLCInvalid(t *testing.T) {
	// (3-1)*3 + 3 + 4 = 13 intermediate bits do not fold into F=2 fields.
	cfg := &PredictorConfig{PredSpec: "composed:path:d3-o3-l3-c4-f2:leh2:ras32"}
	diags := predSpecDiags(cfg)
	if len(diags) != 1 || diags[0].Check != CheckPredSpec || diags[0].Sev != Error ||
		!strings.Contains(diags[0].Msg, "not a multiple of F=2") {
		t.Errorf("invalid DOLC: %v, want one %s error naming the fold", diags, CheckPredSpec)
	}
	if diags := runCfgDOLC(&Context{Config: cfg}); diags != nil {
		t.Errorf("invalid DOLC reached %s: %v", CheckDOLCBudget, diags)
	}
}

// TestCheckDOLCDeadFields: history bits the depth does not track (O at
// depth 0 or 1, L at depth 0) make the DOLC invalid, so cfg-pred-spec
// reports an error naming the dead field and cfg-dolc-budget stays
// silent.
func TestCheckDOLCDeadFields(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		// O bits configured but depth 1 tracks no older tasks.
		{"composed:path:d1-o2-l3-c4-f1:leh2:ras32", "O=2"},
		// L bits configured but depth 0 tracks no last task.
		{"composed:path:d0-o0-l2-c3-f1:leh2:ras32", "L=2"},
	}
	for _, tc := range cases {
		cfg := &PredictorConfig{PredSpec: tc.spec}
		diags := predSpecDiags(cfg)
		if len(diags) != 1 || diags[0].Check != CheckPredSpec || diags[0].Sev != Error ||
			!strings.Contains(diags[0].Msg, tc.want) || !strings.Contains(diags[0].Msg, "tracks no") {
			t.Errorf("%s: %v, want one %s error naming the dead field %s", tc.spec, diags, CheckPredSpec, tc.want)
		}
		if diags := runCfgDOLC(&Context{Config: cfg}); diags != nil {
			t.Errorf("%s: dead-field DOLC reached %s: %v", tc.spec, CheckDOLCBudget, diags)
		}
	}
}

func TestCheckDOLCValid(t *testing.T) {
	diags := checkDOLC("exit predictor", core.MustDOLC(7, 5, 6, 6, 3))
	if len(diags) != 1 || diags[0].Sev != Info {
		t.Errorf("flagship DOLC: %v, want a single sizing info", diags)
	}
}

// aliasGraph builds a bare graph with n multi-exit tasks.
func aliasGraph(n int) *tfg.Graph {
	g := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{}}
	for i := 0; i < n; i++ {
		g.Tasks[isa.Addr(i)] = &tfg.Task{
			Start: isa.Addr(i),
			Exits: []tfg.ExitSpec{{Kind: isa.KindBranch}, {Kind: isa.KindBranch}},
		}
	}
	return g
}

func TestCfgAliasPressure(t *testing.T) {
	tiny := &PredictorConfig{PredSpec: "path:d1-o0-l0-c1:leh2"} // 2 entries
	diags := runCfgAlias(&Context{Graph: aliasGraph(3), Config: tiny})
	if len(diags) != 1 || diags[0].Check != CheckAliasPressure || diags[0].Sev != Warn {
		t.Fatalf("3 tasks on 2 entries: %v, want one %s warning", diags, CheckAliasPressure)
	}
	if !strings.Contains(diags[0].Msg, "aliasing is guaranteed") {
		t.Errorf("warning text: %q", diags[0].Msg)
	}

	roomy := &PredictorConfig{PredSpec: "path:d7-o5-l6-c6-f3:leh2"}
	diags = runCfgAlias(&Context{Graph: aliasGraph(3), Config: roomy})
	if len(diags) != 1 || diags[0].Sev != Info {
		t.Errorf("3 tasks on 16384 entries: %v, want one info", diags)
	}
}

// findDiag returns the first diagnostic whose message contains needle.
func findDiag(diags []Diagnostic, needle string) *Diagnostic {
	for i := range diags {
		if strings.Contains(diags[i].Msg, needle) {
			return &diags[i]
		}
	}
	return nil
}

func TestCallDepthRASVerdicts(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  jal  @g
  ret
.func g
  ret
`)
	ctx := func(ras string) *Context {
		return &Context{Prog: p, Graph: g, Config: &PredictorConfig{PredSpec: "composed:path:d7-o5-l6-c6-f3:leh2:" + ras}}
	}
	if d := findDiag(runTFGCallDepth(ctx("noras")), "holds 0 entries"); d == nil || d.Sev != Warn {
		t.Errorf("no RAS: want an overflow warning naming a 0-entry RAS, got %v", runTFGCallDepth(ctx("noras")))
	}
	// Static call depth is 2 (main -> f -> g): a 1-entry RAS overflows.
	if d := findDiag(runTFGCallDepth(ctx("ras1")), `verdict "may-overflow"`); d == nil || d.Sev != Warn ||
		!strings.Contains(d.Msg, "reaches 2") {
		t.Errorf("1-entry RAS vs depth 2: want an overflow warning naming depth 2, got %v", runTFGCallDepth(ctx("ras1")))
	}
	if d := findDiag(runTFGCallDepth(ctx("ras32")), `verdict "fits"`); d == nil || d.Sev != Info {
		t.Errorf("32-entry RAS: want a fits info, got %v", runTFGCallDepth(ctx("ras32")))
	}
	if d := findDiag(runTFGCallDepth(ctx("ras32")), "no recursion"); d == nil {
		t.Errorf("bounded chain: want a no-recursion info")
	}
}

func TestCallDepthRecursion(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  jal  @f
  ret
`)
	diags := runTFGCallDepth(&Context{Prog: p, Graph: g, Config: standardConfig()})
	if d := findDiag(diags, "recursion detected"); d == nil || d.Sev != Info || !d.HasTask {
		t.Errorf("recursive chain: want a recursion info naming a task, got %v", diags)
	}
	if d := findDiag(diags, `verdict "unbounded"`); d == nil {
		t.Errorf("recursive chain: want an unbounded verdict, got %v", diags)
	}
}

// TestCallDepthLoopIsBounded pins the improvement over the old cfg-ras
// heuristic: a plain branch loop is NOT recursion (the old syntactic
// walk could not tell them apart when a cycle crossed a call summary).
func TestCallDepthLoopIsBounded(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  li   r2, 10
  j    @loop
loop:
  addi r2, r2, -1
  jal  @f
  br   r2, @loop, @done
done:
  halt
.func f
  ret
`)
	diags := runTFGCallDepth(&Context{Prog: p, Graph: g, Config: standardConfig()})
	if d := findDiag(diags, "recursion detected"); d != nil {
		t.Errorf("branch loop with a call misclassified as recursion: %v", d)
	}
	if d := findDiag(diags, `verdict "fits"`); d == nil {
		t.Errorf("loop fixture: want a fits verdict, got %v", diags)
	}
}
