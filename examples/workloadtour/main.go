// Workloadtour: compile an MSL program from source, inspect its task
// flow graph, execute it, and sweep the history depth of an ideal PATH
// predictor over the resulting trace — the whole library pipeline in one
// file, on a program you can edit.
//
// Run with:
//
//	go run ./examples/workloadtour
package main

import (
	"fmt"
	"log"

	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/msl"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/taskform"
	"multiscalar/internal/trace"
)

// A miniature interpreter-style workload in MSL: a register machine
// executing a generated bytecode program — dispatch-heavy control flow
// of the kind that motivates task prediction.
const source = `
array bytecode[4000];
array regs[16];
var seed;
var out;

func rnd() {
	seed = (seed * 1103515245 + 12345) & 0x7fffffff;
	return (seed >> 16) & 32767;
}

// genprogram fills bytecode[] with (op, a, b) triples.
func genprogram(n) {
	for (var i = 0; i < n; i = i + 1) {
		bytecode[i * 3] = rnd() % 6;
		bytecode[i * 3 + 1] = rnd() % 16;
		bytecode[i * 3 + 2] = rnd() % 16;
	}
	return 0;
}

// interp dispatches each bytecode op through a dense switch (an indirect
// branch through a jump table in MSA).
func interp(n) {
	for (var i = 0; i < n; i = i + 1) {
		var op = bytecode[i * 3];
		var a = bytecode[i * 3 + 1];
		var b = bytecode[i * 3 + 2];
		switch (op) {
		case 0: regs[a] = (regs[a] + regs[b] + 1) & 0xffff;
		case 1: regs[a] = (regs[a] - regs[b]) & 0xffff;
		case 2: regs[a] = (regs[a] ^ regs[b]) & 0xffff;
		case 3: regs[a] = (regs[b] << 1) & 0xffff;
		case 4: if (regs[a] > regs[b]) { regs[a] = regs[b]; }
		case 5: regs[a] = (regs[a] * 3 + b) & 0xffff;
		}
	}
	return 0;
}

func main() {
	seed = 2024;
	genprogram(1000);
	for (var round = 0; round < 40; round = round + 1) {
		interp(1000);
		if (round % 10 == 9) {
			genprogram(1000);   // load the next "program"
		}
	}
	var s = 0;
	for (var r = 0; r < 16; r = r + 1) { s = s + regs[r]; }
	out = s;
}
`

func main() {
	prog, err := msl.Compile(source, msl.Options{})
	if err != nil {
		log.Fatal(err)
	}
	graph, err := taskform.Partition(prog, taskform.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("compiled: %d instructions, %d static tasks\n", len(prog.Code), graph.NumTasks())

	m := functional.NewMachine(graph, functional.Config{})
	tr, err := m.Run(functional.Config{})
	if err != nil {
		log.Fatal(err)
	}
	outSym := prog.DataSymbols["out"]
	fmt.Printf("executed %d instructions, %d dynamic tasks; out = %d\n",
		m.Stats().Instrs, tr.Len(), m.Mem()[outSym.Addr])
	col, err := trace.FromTrace(tr)
	if err != nil {
		log.Fatal(err)
	}

	kinds := col.DynamicExitKinds()
	total := 0
	for _, n := range kinds {
		total += n
	}
	fmt.Printf("dynamic exits:")
	for _, k := range []isa.ControlKind{isa.KindBranch, isa.KindCall, isa.KindReturn,
		isa.KindIndirectBranch, isa.KindIndirectCall} {
		fmt.Printf(" %s %.1f%%", k, 100*float64(kinds[k])/float64(total))
	}
	fmt.Println()

	// Exit prediction is easy here (the interpreter loop is regular);
	// the hard problem is the dispatch target — the indirect branch
	// through the opcode jump table. That is the CTTB's job.
	exitRes, err := core.EvaluateExitBlocks(col.Blocks(), core.NewIdealPath(7, core.LEH2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexit prediction (ideal PATH, depth 7): %.2f%% misses\n", 100*exitRes.MissRate())

	fmt.Println("dispatch-target prediction (ideal CTTB) vs history depth:")
	for d := 0; d <= 8; d++ {
		res, err := core.EvaluateIndirectBlocks(col.Blocks(), core.NewIdealCTTB(d))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  depth %d: %6.2f%% target misses over %d indirect exits (%d contexts)\n",
			d, 100*res.MissRate(), res.Steps, res.States)
	}
}
