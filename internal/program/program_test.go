package program

import (
	"testing"

	"multiscalar/internal/isa"
)

// tiny builds a minimal valid program:
//
//	0: li r1, 1
//	1: br r1, @3, @4
//	2: (unreachable) halt
//	3: j @5
//	4: j @5
//	5: halt
func tiny() *Program {
	p := New()
	p.Code = []isa.Instr{
		{Op: isa.Li, Rd: 1, Imm: 1},
		{Op: isa.Br, Rs: 1, TargetA: 3, TargetB: 4},
		{Op: isa.Halt},
		{Op: isa.J, TargetA: 5},
		{Op: isa.J, TargetA: 5},
		{Op: isa.Halt},
	}
	p.Entry = 0
	return p
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatalf("empty program must not validate")
	}
}

func TestValidateRejectsEntryOutOfRange(t *testing.T) {
	p := tiny()
	p.Entry = 99
	if err := p.Validate(); err == nil {
		t.Fatalf("bad entry must not validate")
	}
}

func TestValidateRejectsFallThroughIntoLeader(t *testing.T) {
	p := New()
	p.Code = []isa.Instr{
		{Op: isa.Li, Rd: 1, Imm: 1}, // falls through into @1
		{Op: isa.J, TargetA: 1},     // @1 is a branch target => leader
		{Op: isa.Halt},
	}
	p.Entry = 0
	if err := p.Validate(); err == nil {
		t.Fatalf("fall-through into leader must not validate")
	}
}

func TestValidateRejectsNonControlTail(t *testing.T) {
	p := New()
	p.Code = []isa.Instr{{Op: isa.Li, Rd: 1}}
	p.Entry = 0
	if err := p.Validate(); err == nil {
		t.Fatalf("program ending in non-control must not validate")
	}
}

func TestValidateRejectsBadDataSymbols(t *testing.T) {
	p := tiny()
	p.DataSize = 4
	p.DataSymbols["x"] = DataSym{Addr: 3, Size: 2}
	if err := p.Validate(); err == nil {
		t.Fatalf("out-of-range data symbol must not validate")
	}
}

func TestValidateRejectsOversizedData(t *testing.T) {
	p := tiny()
	p.Data = []int64{1, 2, 3}
	p.DataSize = 2
	if err := p.Validate(); err == nil {
		t.Fatalf("data exceeding DataSize must not validate")
	}
}

func TestBuildCFGBlocks(t *testing.T) {
	g, err := BuildCFG(tiny())
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	// Leaders: 0 (entry), 3, 4 (branch targets), 5 (jump target).
	for _, start := range []isa.Addr{0, 3, 4, 5} {
		if g.Blocks[start] == nil {
			t.Errorf("missing block @%d", start)
		}
	}
	b0 := g.Blocks[0]
	if b0.End != 1 || b0.Len() != 2 {
		t.Errorf("block 0 spans [%d,%d]", b0.Start, b0.End)
	}
	if len(b0.Succs) != 2 {
		t.Errorf("block 0 succs = %v", b0.Succs)
	}
	if g.Term(0).Op != isa.Br {
		t.Errorf("block 0 terminator %v", g.Term(0).Op)
	}
}

func TestReachableSkipsDeadBlock(t *testing.T) {
	g, err := BuildCFG(tiny())
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	seen := g.Reachable()
	if seen[2] {
		t.Errorf("unreachable halt @2 reported reachable")
	}
	for _, a := range []isa.Addr{0, 3, 4, 5} {
		if !seen[a] {
			t.Errorf("block @%d should be reachable", a)
		}
	}
}

func TestNameOfPrefersFunctions(t *testing.T) {
	p := tiny()
	p.Labels["spot"] = 3
	p.Functions["fn"] = 3
	// NameOf checks Functions first.
	if got := p.NameOf(3); got != "fn" {
		t.Errorf("NameOf = %q", got)
	}
	if got := p.NameOf(2); got != "" {
		t.Errorf("NameOf(unlabelled) = %q", got)
	}
}
