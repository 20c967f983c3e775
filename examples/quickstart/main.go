// Quickstart: assemble a small MSA program, partition it into Multiscalar
// tasks, execute it, and measure how well the paper's path-based task
// predictor anticipates the task-level control flow.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/taskform"
	"multiscalar/internal/trace"
)

// A loop whose exit behaviour alternates with data: i%3 selects between
// two paths, and every iteration calls a helper. Inter-task prediction
// has to learn the period from the task path.
const source = `
.entry main
.stack 128

.func main
    li   r2, 0          ; i
    li   r4, 0          ; acc
    j    @loop
loop:
    slti r3, r2, 3000
    br   r3, @body, @done
body:
    li   r5, 3
    rem  r5, r2, r5
    seqi r5, r5, 0
    br   r5, @third, @other
third:
    jal  @bump
    add  r4, r4, rv
    j    @next
other:
    addi r4, r4, 1
    j    @next
next:
    addi r2, r2, 1
    j    @loop
done:
    halt

.func bump
    addi rv, r4, 7
    ret
`

func main() {
	prog, err := asm.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := taskform.Partition(prog, taskform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d instructions -> %d static tasks\n", len(prog.Code), graph.NumTasks())
	for _, addr := range graph.Order {
		task := graph.Tasks[addr]
		fmt.Printf("  task @%-3d %-6s exits=%d\n", addr, task.Name, task.NumExits())
	}

	tr, stats, err := functional.Run(graph, functional.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d instructions as %d dynamic tasks (%.1f instr/task)\n",
		stats.Instrs, tr.Len(), stats.InstrsPerTask())

	// Replay runs over the columnar encoding of the trace: each predictor
	// consumes it block by block through the core replay kernels.
	col, err := trace.FromTrace(tr)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's recommended configuration: a path-based exit predictor
	// (depth 7, DOLC-folded 14-bit index, LEH-2 automata) with a return
	// address stack and a correlated target buffer. The engine spec
	// grammar is the single way predictors are built everywhere in the
	// repo — msim's -pred flag takes the same strings.
	pred := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")

	res, err := core.EvaluateTaskBlocks(col.Blocks(), pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task predictions: %d, misses: %d (%.2f%%)\n",
		res.Steps, res.Misses, 100*res.MissRate())

	// Compare against a history-less predictor (the Table 4 "Simple" row:
	// a depth-0 DOLC indexes the PHT by task address alone).
	simple := engine.MustBuild("composed:path:d0-o0-l0-c14:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	sres, err := core.EvaluateTaskBlocks(col.Blocks(), simple)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without path history: %.2f%% misses — path history removes %.0f%% of them\n",
		100*sres.MissRate(), 100*(1-res.MissRate()/sres.MissRate()))
}
