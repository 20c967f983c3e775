package lint

import (
	"strings"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/tfg"
)

// diamondGraph hand-builds a TFG diamond whose two join predecessors
// share every low address bit a tiny DOLC can see: 0 -> {2,4} -> 8.
func diamondGraph() *tfg.Graph {
	p := program.New()
	p.Entry = 0
	g := &tfg.Graph{Prog: p, Tasks: map[isa.Addr]*tfg.Task{}}
	mk := func(start isa.Addr, targets ...isa.Addr) {
		t := &tfg.Task{Start: start, Blocks: []isa.Addr{start}, ExitIndex: map[tfg.ExitRef]int{}}
		for _, tgt := range targets {
			t.Exits = append(t.Exits, tfg.ExitSpec{Kind: isa.KindBranch, Target: tgt, HasTarget: true})
		}
		if len(targets) == 0 {
			t.Halts = true
		}
		g.Tasks[start] = t
	}
	mk(0, 2, 4)
	mk(2, 8)
	mk(4, 8)
	mk(8)
	g.Finalize()
	return g
}

// TestDOLCAliasFixture: the join task is reached through two distinct
// one-deep histories ([2] and [4]) that a 1-0-1-1(1) DOLC folds to the
// same 2-entry index (2 and 4 share their low bit) — the statically
// guaranteed aliasing the check exists for.
func TestDOLCAliasFixture(t *testing.T) {
	tiny := &PredictorConfig{PredSpec: "path:d1-o0-l1-c1:leh2"}
	diags := runTFGDOLCAlias(&Context{Graph: diamondGraph(), Config: tiny})
	d := findDiag(diags, "destructive aliasing is statically guaranteed")
	if d == nil || d.Check != CheckDOLCAlias || d.Sev != Warn {
		t.Fatalf("no alias warning on the folding diamond: %v", diags)
	}
	if !d.HasTask || d.Task != 8 {
		t.Errorf("alias warning not attributed to the join task: %+v", d)
	}

	// A wide DOLC (14-bit index) separates the two histories: only the
	// enumeration summary info remains.
	diags = runTFGDOLCAlias(&Context{Graph: diamondGraph(), Config: standardConfig()})
	if d := findDiag(diags, "destructive aliasing"); d != nil {
		t.Errorf("wide DOLC still aliases: %v", d)
	}
	if d := findDiag(diags, "history enumeration"); d == nil {
		t.Errorf("enumeration summary missing: %v", diags)
	}
}

func TestDeadExitFixture(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  ret
`)
	// A header slot no instruction edge maps to: statically dead.
	entry := g.Tasks[p.Entry]
	entry.Exits = append(entry.Exits, tfg.ExitSpec{Kind: isa.KindBranch, Target: p.Entry, HasTarget: true})
	diags := runTFGDeadExit(NewContext(p, g, nil))
	d := findDiag(diags, "never taken on any entry-reachable path")
	if d == nil || d.Check != CheckDeadExit || d.Sev != Warn || !d.HasTask || d.Task != p.Entry {
		t.Fatalf("dead slot not reported: %v", diags)
	}

	// The clean version reports nothing.
	p2, g2 := assemble(t, `
.entry main
.func main
  jal  @f
  halt
.func f
  ret
`)
	if diags := runTFGDeadExit(NewContext(p2, g2, nil)); len(diags) != 0 {
		t.Fatalf("clean fixture reported dead exits: %v", diags)
	}
}

func TestIndirectTargetsFixture(t *testing.T) {
	p, g := assemble(t, `
.entry main
.word tbl @c1 @c2 @c3
.func main
  li   r2, 0
  lw   r7, 0(r2)
  jr   r7
c1:
  halt
c2:
  halt
c3:
  halt
`)
	// A 1-bit CTTB index (2 entries) against a 3-target dispatch site:
	// per-site pressure guarantees aliasing.
	diags := runTFGIndirectTargets(NewContext(p, g, &PredictorConfig{PredSpec: "cttb:d1-o0-l0-c1"}))
	site := findDiag(diags, "dispatch-table data[0:3)")
	if site == nil || site.Check != CheckIndirectTargets {
		t.Fatalf("dispatch table not inferred: %v", diags)
	}
	if site.Sev != Warn || !strings.Contains(site.Msg, "more targets than the 2-entry CTTB") {
		t.Errorf("per-site pressure not flagged: %+v", site)
	}
	if !site.HasAddr {
		t.Errorf("site diagnostic carries no instruction address: %+v", site)
	}

	// With the flagship CTTB (2048 entries) the same site is an info.
	diags = runTFGIndirectTargets(NewContext(p, g, standardConfig()))
	if d := findDiag(diags, "3 target(s) inferred"); d == nil || d.Sev != Info {
		t.Errorf("roomy CTTB: want an info site diagnostic, got %v", diags)
	}
}

// TestDataflowChecksViaFullRun asserts the whole-suite plumbing: every
// new check ID surfaces through Run on a fixture that provokes it.
func TestDataflowChecksViaFullRun(t *testing.T) {
	p, g := assemble(t, `
.entry main
.word tbl @c1 @c2
.func main
  li   r2, 0
  lw   r7, 0(r2)
  jr   r7
c1:
  jal  @c1
  halt
c2:
  halt
`)
	entry := g.Tasks[p.Entry]
	entry.Exits = append(entry.Exits, tfg.ExitSpec{Kind: isa.KindBranch, Target: p.Entry, HasTarget: true})
	rep := Run(NewContext(p, g, standardConfig()))
	for _, want := range []string{CheckCallDepth, CheckIndirectTargets, CheckDeadExit} {
		if !hasCheck(rep, want) {
			t.Errorf("full run missing %s (got %v)", want, rep.Checks())
		}
	}
}
