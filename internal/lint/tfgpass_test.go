package lint

import (
	"strings"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// TestRASUnbalancedChain is the required RAS-imbalance case: main jumps
// (not calls) into f, so f's RETURN exit executes with an empty call
// stack and the detector must fire.
func TestRASUnbalancedChain(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  j    @f
.func f
  ret
`)
	diags := runTFGRASBalance(&Context{Prog: p, Graph: g})
	if len(diags) == 0 {
		t.Fatalf("unbalanced chain produced no diagnostics")
	}
	// The task former absorbs the contiguous jump into the entry task, so
	// the RETURN exit is reached at depth 0 inside task @0 itself.
	d := diags[0]
	if d.Check != CheckRASUnderflow || d.Sev != Error {
		t.Errorf("diagnostic = %v, want error %s", d, CheckRASUnderflow)
	}
	if !d.HasTask || d.Task != p.Entry {
		t.Errorf("underflow attributed to task @%d, want entry @%d", d.Task, p.Entry)
	}
	if !d.HasAddr || d.Addr != p.Labels["f"] {
		t.Errorf("underflow not attributed to the ret instruction @%d: %v", p.Labels["f"], d)
	}
}

// TestRASBalancedCall: a proper JAL/RET pair keeps the abstract stack
// balanced, so the detector must stay silent.
func TestRASBalancedCall(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  ret
`)
	if diags := runTFGRASBalance(&Context{Prog: p, Graph: g}); len(diags) != 0 {
		t.Errorf("balanced call chain flagged: %v", diags)
	}
}

// TestRASNestedCalls: returns at depth 2 and 1 are balanced; no finding.
func TestRASNestedCalls(t *testing.T) {
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
	if diags := runTFGRASBalance(&Context{Prog: p, Graph: g}); len(diags) != 0 {
		t.Errorf("nested balanced calls flagged: %v", diags)
	}
}

func TestOrphanTask(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  halt
`)
	c := &Context{Prog: p, Graph: g}
	if diags := runTFGOrphans(c); len(diags) != 0 {
		t.Fatalf("clean graph has orphans: %v", diags)
	}
	g.Tasks[50] = &tfg.Task{Start: 50, Blocks: []isa.Addr{0}}
	g.Finalize()
	diags := runTFGOrphans(c)
	if len(diags) != 1 || diags[0].Check != CheckOrphanTask || diags[0].Task != 50 {
		t.Errorf("orphan not flagged: %v", diags)
	}
}

// TestIndirectCoverage: a task with an INDIRECT_CALL exit warns when the
// spec is a task predictor without a CTTB, and stays silent when the
// spec builds one — the standard composed spec included — or predicts
// no task targets at all.
func TestIndirectCoverage(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  la   r7, @f
  jalr r7
  halt
.func f
  ret
`)
	noCTTB := &Context{Prog: p, Graph: g, Config: &PredictorConfig{PredSpec: "composed:path:d7-o5-l6-c6-f3:leh2:ras32"}}
	diags := runTFGIndirectCoverage(noCTTB)
	if len(diags) != 1 || diags[0].Check != CheckIndirectUncovered || diags[0].Sev != Warn {
		t.Fatalf("uncovered indirect exit not warned: %v", diags)
	}
	for _, spec := range []string{
		stdSpec,
		"composed:path:d7-o5-l6-c6-f3:leh2:ras32:icttb:d7",
		"path:d7-o5-l6-c6-f3:leh2",
		"cttb:d7-o4-l4-c5-f3",
		"",
	} {
		c := &Context{Prog: p, Graph: g, Config: &PredictorConfig{PredSpec: spec}}
		if diags := runTFGIndirectCoverage(c); len(diags) != 0 {
			t.Errorf("spec %q: indirect exit warned: %v", spec, diags)
		}
	}
}

// TestSingleExitRatio: small mixed graphs report an info; a graph of >= 8
// tasks that is >= 95% single-exit is degenerate and warns.
func TestSingleExitRatio(t *testing.T) {
	mixed := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{
		0: {Start: 0, Exits: []tfg.ExitSpec{{Kind: isa.KindBranch}}},
		1: {Start: 1, Exits: []tfg.ExitSpec{{Kind: isa.KindBranch}, {Kind: isa.KindBranch}}},
	}}
	diags := runTFGSingleExit(&Context{Graph: mixed})
	if len(diags) != 1 || diags[0].Sev != Info {
		t.Fatalf("mixed graph: %v, want one info", diags)
	}

	degenerate := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{}}
	for i := 0; i < 8; i++ {
		degenerate.Tasks[isa.Addr(i)] = &tfg.Task{Start: isa.Addr(i), Exits: []tfg.ExitSpec{{Kind: isa.KindBranch}}}
	}
	diags = runTFGSingleExit(&Context{Graph: degenerate})
	if len(diags) != 1 || diags[0].Sev != Warn || !strings.Contains(diags[0].Msg, "degenerate") {
		t.Errorf("degenerate graph: %v, want degeneracy warning", diags)
	}
}

// TestStructurePassPositions: structural issues with an instruction
// address resolve a source line through Program.Lines.
func TestStructurePassPositions(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  j    @f
.func f
  ret
`)
	// Point f's only edge at an out-of-range exit slot.
	f := g.Tasks[p.Labels["f"]]
	for ref := range f.ExitIndex {
		f.ExitIndex[ref] = 7
	}
	diags := runTFGStructure(&Context{Prog: p, Graph: g})
	if len(diags) == 0 {
		t.Fatalf("incoherent ExitIndex produced no diagnostics")
	}
	d := diags[0]
	if d.Check != tfg.CheckExitCoherence || d.Sev != Error {
		t.Errorf("diagnostic = %v, want error %s", d, tfg.CheckExitCoherence)
	}
	if d.Line == 0 {
		t.Errorf("structural diagnostic lost its source line: %v", d)
	}
}
