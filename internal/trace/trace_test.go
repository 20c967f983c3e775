package trace

import (
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// graph builds a two-task ping-pong TFG for trace tests.
func graph() *tfg.Graph {
	g := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{
		1: {Start: 1, Blocks: []isa.Addr{1}, Exits: []tfg.ExitSpec{
			{Kind: isa.KindBranch, Target: 2, HasTarget: true},
			{Kind: isa.KindReturn},
		}},
		2: {Start: 2, Blocks: []isa.Addr{2}, Exits: []tfg.ExitSpec{
			{Kind: isa.KindBranch, Target: 1, HasTarget: true},
		}},
	}}
	g.Finalize()
	return g
}

func pingPong(n int) *Trace {
	tr := &Trace{Graph: graph()}
	for i := 0; i < n; i++ {
		tr.Steps = append(tr.Steps,
			Step{Task: 1, Exit: 0, Target: 2},
			Step{Task: 2, Exit: 0, Target: 1})
	}
	tr.Steps = append(tr.Steps, Step{Task: 1, Exit: HaltExit})
	return tr
}

func TestHalted(t *testing.T) {
	if !pingPong(2).Halted() {
		t.Error("complete trace not Halted")
	}
	cut := &Trace{Graph: graph(), Steps: []Step{{Task: 1, Exit: 0, Target: 2}}}
	if cut.Halted() {
		t.Error("capped trace reports Halted")
	}
	if (&Trace{Graph: graph()}).Halted() {
		t.Error("empty trace reports Halted")
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := pingPong(3).Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(tr *Trace){
		func(tr *Trace) { tr.Steps[0].Task = 9 },        // unknown task
		func(tr *Trace) { tr.Steps[0].Exit = 3 },        // bad exit index
		func(tr *Trace) { tr.Steps[0].Target = 9 },      // target not a task
		func(tr *Trace) { tr.Steps[1].Target = 2 },      // contradicts header target
		func(tr *Trace) { tr.Steps[0].Exit = HaltExit }, // halt mid-trace
	}
	for i, f := range cases {
		tr := pingPong(2)
		f(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestCounts(t *testing.T) {
	tr := pingPong(5)
	if tr.Len() != 11 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.PredictionSteps() != 10 {
		t.Fatalf("PredictionSteps = %d", tr.PredictionSteps())
	}
	if tr.DistinctTasks() != 2 {
		t.Fatalf("DistinctTasks = %d", tr.DistinctTasks())
	}
}

func TestDynamicHistograms(t *testing.T) {
	tr := pingPong(4)
	h := tr.DynamicExitHistogram()
	if h[2] != 5 || h[1] != 4 { // task 1 has 2 exits and appears 5× (incl. halt step)
		t.Fatalf("histogram = %v", h)
	}
	kinds := tr.DynamicExitKinds()
	if kinds[isa.KindBranch] != 8 || kinds[isa.KindReturn] != 0 {
		t.Fatalf("kinds = %v", kinds)
	}
}
