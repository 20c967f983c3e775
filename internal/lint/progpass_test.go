package lint

import (
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
)

func countCheck(diags []Diagnostic, id string) int {
	n := 0
	for _, d := range diags {
		if d.Check == id {
			n++
		}
	}
	return n
}

func TestProgSymbolsEmpty(t *testing.T) {
	diags := runProgSymbols(&Context{Prog: program.New()})
	if len(diags) != 1 || diags[0].Check != CheckBadSymbol {
		t.Errorf("empty program: %v, want one %s", diags, CheckBadSymbol)
	}
}

// TestProgSymbols drives every branch of the symbol checker with one
// deliberately broken program.
func TestProgSymbols(t *testing.T) {
	p := program.New()
	p.Code = []isa.Instr{{Op: isa.J, TargetA: 0}}
	p.Entry = 5                                            // outside text
	p.Labels["x"] = 9                                      // outside text
	p.Functions["f"] = 0                                   // no matching label
	p.DataSymbols["d"] = program.DataSym{Addr: 2, Size: 8} // outside DataSize
	p.DataSize = 4
	p.Lines = []int{1, 2} // not parallel to Code

	diags := runProgSymbols(&Context{Prog: p})
	if got := countCheck(diags, CheckBadSymbol); got != 5 {
		t.Errorf("got %d %s diagnostics, want 5:\n%v", got, CheckBadSymbol, diags)
	}
	for _, d := range diags {
		if d.Sev != Error {
			t.Errorf("symbol diagnostic not an error: %v", d)
		}
	}
}

// TestProgLayoutFallthrough: a non-control instruction immediately before
// a block leader merges flows, and the jump that created the leader lands
// in the interior of a straight-line run — both ends of the same defect.
func TestProgLayoutFallthrough(t *testing.T) {
	p := program.New()
	p.Code = []isa.Instr{
		{Op: isa.Add},           // @0 falls through into @1
		{Op: isa.J, TargetA: 1}, // @1 is a leader and a run interior
	}
	diags := runProgLayout(&Context{Prog: p})
	if countCheck(diags, CheckFallthrough) != 1 {
		t.Errorf("fall-through not flagged: %v", diags)
	}
	if countCheck(diags, CheckInteriorJump) != 1 {
		t.Errorf("interior jump not flagged: %v", diags)
	}
}

func TestProgLayoutFinalInstruction(t *testing.T) {
	p := program.New()
	p.Code = []isa.Instr{{Op: isa.Add}}
	diags := runProgLayout(&Context{Prog: p})
	if countCheck(diags, CheckFallthrough) != 1 {
		t.Errorf("non-control final instruction not flagged: %v", diags)
	}
}

// TestProgReachability: entry jumps straight to the final halt; the two
// blocks in between are only reachable from each other and must warn.
func TestProgReachability(t *testing.T) {
	p := program.New()
	p.Code = []isa.Instr{
		{Op: isa.J, TargetA: 3}, // entry: skip to halt
		{Op: isa.J, TargetA: 2}, // dead
		{Op: isa.J, TargetA: 1}, // dead
		{Op: isa.Halt},
	}
	c := NewContext(p, nil, nil)
	if c.CFG == nil {
		t.Fatalf("fixture failed to build a CFG")
	}
	diags := runProgReachability(c)
	if got := countCheck(diags, CheckUnreachableBlock); got != 2 {
		t.Fatalf("got %d unreachable blocks, want 2: %v", got, diags)
	}
	for _, d := range diags {
		if d.Sev != Warn || !d.HasAddr || (d.Addr != 1 && d.Addr != 2) {
			t.Errorf("unexpected reachability diagnostic: %v", d)
		}
	}
}

// TestProgLayoutCleanViaAsm: assembler output satisfies every layout
// invariant by construction.
func TestProgLayoutCleanViaAsm(t *testing.T) {
	p, _ := assemble(t, `
.entry main
.func main
  li   r2, 3
  br   r2, @done, @done
done:
  halt
`)
	c := NewContext(p, nil, nil)
	if diags := append(runProgSymbols(c), runProgLayout(c)...); len(diags) != 0 {
		t.Errorf("assembled program flagged: %v", diags)
	}
}
