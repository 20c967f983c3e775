package functional

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// testProgram exercises every control-flow type: a counted loop (branch),
// a direct call/return, an indirect call through a function-pointer table,
// and an indirect branch through a jump table.
const testProgram = `
.entry main
.stack 256
.word fnptrs @double @triple
.word jumptab @case0 @case1 @case2
.space out 8

.func main
    li   sp, 255
    li   r2, 0          ; i = 0
    j    @loop
loop:
    slti r3, r2, 12
    br   r3, @body, @done
body:
    ; direct call: r4 = add1(i)
    sw   r2, 0(sp)      ; save i (caller-saved)
    add  r10, r2, zero
    jal  @add1
    lw   r2, 0(sp)
    add  r4, rv, zero

    ; indirect call: f = fnptrs[i % 2]; r5 = f(i)
    la   r6, $fnptrs
    andi r7, r2, 1
    add  r6, r6, r7
    lw   r6, 0(r6)
    sw   r2, 0(sp)
    sw   r4, 1(sp)
    add  r10, r2, zero
    jalr r6
    lw   r2, 0(sp)
    lw   r4, 1(sp)
    add  r5, rv, zero

    ; indirect branch: switch (i % 3)
    la   r8, $jumptab
    li   r9, 3
    rem  r9, r2, r9
    add  r8, r8, r9
    lw   r8, 0(r8)
    jr   r8
case0:
    li   r11, 100
    j    @store
case1:
    li   r11, 200
    j    @store
case2:
    li   r11, 300
    j    @store
store:
    la   r12, $out
    andi r13, r2, 7
    add  r12, r12, r13
    add  r14, r4, r5
    add  r14, r14, r11
    sw   r14, 0(r12)
    addi r2, r2, 1
    j    @loop
done:
    halt

.func add1
    addi rv, r10, 1
    ret

.func double
    add  rv, r10, r10
    ret

.func triple
    add  rv, r10, r10
    add  rv, rv, r10
    ret
`

func buildTestGraph(t *testing.T) *tfg.Graph {
	t.Helper()
	p, err := asm.Assemble(testProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// A small task budget keeps some branch edges as task exits even in
	// this tiny program.
	g, err := taskform.Partition(p, taskform.Options{MaxInstr: 8, MaxBlocks: 2})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return g
}

func TestRunProducesValidTrace(t *testing.T) {
	g := buildTestGraph(t)
	tr, stats, err := Run(g, Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !stats.Halted {
		t.Fatalf("program did not halt")
	}
	c, err := trace.FromTrace(tr) // checks every step against g
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if tr.Len() < 12 {
		t.Fatalf("suspiciously short trace: %d steps", tr.Len())
	}
	if stats.Instrs == 0 || stats.Tasks != tr.Len() {
		t.Fatalf("stats inconsistent: %+v vs %d steps", stats, tr.Len())
	}

	// Every control-flow type must appear as a dynamic exit.
	kinds := c.DynamicExitKinds()
	for _, k := range []isa.ControlKind{
		isa.KindBranch, isa.KindCall, isa.KindReturn,
		isa.KindIndirectBranch, isa.KindIndirectCall,
	} {
		if kinds[k] == 0 {
			t.Errorf("no dynamic exits of kind %v", k)
		}
	}
}

func TestComputationResult(t *testing.T) {
	g := buildTestGraph(t)
	m := NewMachine(g, Config{})
	if _, err := m.Run(Config{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := g.Prog.DataSymbols["out"]
	// For i in 0..11, out[i%8] ends with (i+1) + f(i) + case(i%3) where
	// f doubles on even i and triples on odd i. The final writers of
	// slots 0..3 are i=8..11; slots 4..7 are i=4..7.
	want := func(i int64) int64 {
		add1 := i + 1
		var f int64
		if i%2 == 0 {
			f = 2 * i
		} else {
			f = 3 * i
		}
		cases := []int64{100, 200, 300}
		return add1 + f + cases[i%3]
	}
	for slot := 0; slot < 8; slot++ {
		var last int64 = -1
		for i := int64(0); i < 12; i++ {
			if i%8 == int64(slot) {
				last = i
			}
		}
		got := m.Mem()[out.Addr+slot]
		if got != want(last) {
			t.Errorf("out[%d] = %d, want %d (last writer i=%d)", slot, got, want(last), last)
		}
	}
}

func TestTaskBoundariesRespectHeaderLimit(t *testing.T) {
	g := buildTestGraph(t)
	for _, addr := range g.Order {
		task := g.Tasks[addr]
		if n := task.NumExits(); n > tfg.MaxExits {
			t.Errorf("task @%d has %d exits", addr, n)
		}
	}
}

// The trace → predictor end-to-end path (functional run feeding
// core.EvaluateTask through an engine-built predictor) is covered in
// internal/engine's run tests, which can import this package's
// dependents without a cycle.

func TestMaxStepsBound(t *testing.T) {
	g := buildTestGraph(t)
	tr, stats, err := Run(g, Config{MaxSteps: 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.Len() != 5 {
		t.Fatalf("trace length %d, want 5", tr.Len())
	}
	if stats.Halted {
		t.Fatalf("should not have halted within 5 steps")
	}
}

func TestMemoryFaultReported(t *testing.T) {
	src := `
.entry main
.func main
    li r2, 99999
    lw r3, 0(r2)
    halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, err := taskform.Partition(p, taskform.Options{})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if _, _, err := Run(g, Config{}); err == nil {
		t.Fatalf("expected out-of-bounds load to fail")
	}
}
