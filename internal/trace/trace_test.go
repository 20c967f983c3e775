package trace

import (
	"bytes"
	"errors"
	"strings"
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

// TestValidateAccepts: a trace that keeps the step rule encodes against
// its graph and reads back from MSTC bound to the same graph.
func TestValidateAccepts(t *testing.T) {
	tr := pingPong(3)
	c := mustColumnar(t, tr)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadColumnar(&buf, tr.Graph, 0); err != nil {
		t.Fatalf("ReadColumnar: %v", err)
	}
}

// frameUnchecked frames steps as MSTC with valid CRCs and no step checks
// at all: the bytes a faulty producer would write. A halt step interns
// no target.
func frameUnchecked(t testing.TB, steps []Step) []byte {
	t.Helper()
	e := NewEncoder(nil)
	for _, s := range steps {
		ti, err := e.intern(s.Task)
		if err != nil {
			t.Fatal(err)
		}
		var gi uint16
		if s.Exit != HaltExit {
			if gi, err = e.intern(s.Target); err != nil {
				t.Fatal(err)
			}
		}
		e.taskIdx = append(e.taskIdx, ti)
		e.exits = append(e.exits, s.Exit)
		e.targetIdx = append(e.targetIdx, gi)
	}
	var buf bytes.Buffer
	if err := e.Finish().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateRejects holds both places that build graph-bound columns
// to the one step rule: every mutation is refused by Encoder.Append
// (ErrNotColumnar) and, framed with valid CRCs, by ReadColumnar bound to
// the graph (ErrCorrupt), each naming the clause it broke.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s []Step)
		want   string
	}{
		{"unknown task", func(s []Step) { s[0].Task = 9 }, "@9 is not a task"},
		{"bad exit index", func(s []Step) { s[0].Exit = 3 }, "exit 3 of 2"},
		{"target not a task", func(s []Step) { s[0].Exit, s[0].Target = 1, 9 }, "target @9 is not a task"},
		{"contradicts header target", func(s []Step) { s[1].Target = 2 }, "!= header @1"},
		{"halt mid-trace", func(s []Step) { s[0].Exit = HaltExit }, "halt"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := pingPong(2)
			c.mutate(tr.Steps)
			err := NewEncoder(tr.Graph).Append(tr.Steps)
			if !errors.Is(err, ErrNotColumnar) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Encoder.Append: %v, want ErrNotColumnar mentioning %q", err, c.want)
			}
			_, err = ReadColumnar(bytes.NewReader(frameUnchecked(t, tr.Steps)), tr.Graph, 0)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("ReadColumnar: %v, want ErrCorrupt mentioning %q", err, c.want)
			}
		})
	}
}

func TestCounts(t *testing.T) {
	c := mustColumnar(t, pingPong(5))
	if c.Len() != 11 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.PredictionSteps() != 10 {
		t.Fatalf("PredictionSteps = %d", c.PredictionSteps())
	}
	if c.DistinctTasks() != 2 {
		t.Fatalf("DistinctTasks = %d", c.DistinctTasks())
	}
}

func TestDynamicHistograms(t *testing.T) {
	c := mustColumnar(t, pingPong(4))
	h := c.DynamicExitHistogram()
	if h[2] != 5 || h[1] != 4 { // task 1 has 2 exits and appears 5× (incl. halt step)
		t.Fatalf("histogram = %v", h)
	}
	kinds := c.DynamicExitKinds()
	if kinds[isa.KindBranch] != 8 || kinds[isa.KindReturn] != 0 {
		t.Fatalf("kinds = %v", kinds)
	}
}
