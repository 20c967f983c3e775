package tfg

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
)

func TestExitSpecString(t *testing.T) {
	cases := map[string]ExitSpec{
		"branch->@7":          {Kind: isa.KindBranch, Target: 7, HasTarget: true},
		"call->@3 ret@9":      {Kind: isa.KindCall, Target: 3, HasTarget: true, Return: 9},
		"return":              {Kind: isa.KindReturn},
		"indirect_branch":     {Kind: isa.KindIndirectBranch},
		"indirect_call ret@4": {Kind: isa.KindIndirectCall, Return: 4},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTaskProperties(t *testing.T) {
	one := &Task{Start: 1, Exits: []ExitSpec{{Kind: isa.KindReturn}}}
	if !one.SingleExit() || one.NumExits() != 1 {
		t.Errorf("single-exit task misreported")
	}
	two := &Task{Start: 1, Exits: make([]ExitSpec, 2)}
	if two.SingleExit() {
		t.Errorf("two-exit task reported single")
	}
}

// validGraph builds a tiny coherent graph over a real program.
func validGraph(t *testing.T) *Graph {
	t.Helper()
	p := program.New()
	p.Code = []isa.Instr{
		{Op: isa.Br, Rs: 1, TargetA: 1, TargetB: 2}, // task A @0
		{Op: isa.J, TargetA: 0},                     // task B @1
		{Op: isa.Halt},                              // task C @2
	}
	p.Entry = 0
	g := &Graph{Prog: p, Tasks: map[isa.Addr]*Task{
		0: {Start: 0, Blocks: []isa.Addr{0},
			Exits: []ExitSpec{
				{Kind: isa.KindBranch, Target: 1, HasTarget: true},
				{Kind: isa.KindBranch, Target: 2, HasTarget: true},
			},
			ExitIndex: map[ExitRef]int{
				{At: 0, Slot: SlotPrimary}:   0,
				{At: 0, Slot: SlotSecondary}: 1,
			}},
		1: {Start: 1, Blocks: []isa.Addr{1},
			Exits:     []ExitSpec{{Kind: isa.KindBranch, Target: 0, HasTarget: true}},
			ExitIndex: map[ExitRef]int{{At: 1, Slot: SlotPrimary}: 0}},
		2: {Start: 2, Blocks: []isa.Addr{2}, Halts: true, ExitIndex: map[ExitRef]int{}},
	}}
	g.Finalize()
	return g
}

func TestGraphValidateAccepts(t *testing.T) {
	g := validGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumTasks() != 3 || g.TaskAt(1) == nil || g.TaskAt(9) != nil {
		t.Fatalf("graph accessors broken")
	}
	if len(g.Order) != 3 || g.Order[0] != 0 || g.Order[2] != 2 {
		t.Fatalf("Order = %v", g.Order)
	}
}

func TestGraphValidateRejects(t *testing.T) {
	breakIt := []func(g *Graph){
		func(g *Graph) { g.Tasks[0].Start = 5 }, // key mismatch
		func(g *Graph) { g.Tasks[0].Exits = make([]ExitSpec, MaxExits+1) },
		func(g *Graph) { g.Tasks[0].Blocks = nil },
		func(g *Graph) { g.Tasks[0].ExitIndex[ExitRef{At: 0}] = 9 }, // bad exit index
		func(g *Graph) { // exit target not a task
			g.Tasks[1].Exits[0].Target = 99
		},
		func(g *Graph) { // exit kind disagrees with instruction
			g.Tasks[1].Exits[0].Kind = isa.KindReturn
			g.Tasks[1].Exits[0].HasTarget = false
		},
	}
	for i, f := range breakIt {
		g := validGraph(t)
		f(g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the graph", i)
		} else if !strings.Contains(err.Error(), "tfg:") {
			t.Errorf("mutation %d: error %q lacks package prefix", i, err)
		}
	}
}

func TestStaticHistograms(t *testing.T) {
	g := validGraph(t)
	h := g.StaticExitHistogram()
	if h[0] != 1 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	kinds := g.StaticExitKinds()
	if kinds[isa.KindBranch] != 3 {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestSuccessorsDedupOrder pins Successors semantics: exit targets and
// call return points, deduplicated, ascending.
func TestSuccessorsDedupOrder(t *testing.T) {
	g := validGraph(t)
	task := &Task{Start: 9, Exits: []ExitSpec{
		{Kind: isa.KindCall, Target: 7, HasTarget: true, Return: 3},
		{Kind: isa.KindBranch, Target: 3, HasTarget: true},
		{Kind: isa.KindBranch, Target: 1, HasTarget: true},
		{Kind: isa.KindReturn},
	}}
	got := g.Successors(task)
	want := []isa.Addr{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

// TestSuccessorsIntoZeroAlloc pins the hot-loop contract: with a
// caller-provided MaxSuccessors buffer the common small-header case
// allocates nothing.
func TestSuccessorsIntoZeroAlloc(t *testing.T) {
	g := validGraph(t)
	task := g.Tasks[0]
	var buf [MaxSuccessors]isa.Addr
	allocs := testing.AllocsPerRun(100, func() {
		if s := g.SuccessorsInto(task, buf[:0]); len(s) != 2 {
			t.Fatalf("SuccessorsInto = %v", s)
		}
	})
	if allocs != 0 {
		t.Errorf("SuccessorsInto allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkSuccessorsInto(b *testing.B) {
	p := program.New()
	p.Code = []isa.Instr{{Op: isa.Halt}}
	g := &Graph{Prog: p, Tasks: map[isa.Addr]*Task{}}
	task := &Task{Start: 0, Exits: []ExitSpec{
		{Kind: isa.KindCall, Target: 40, HasTarget: true, Return: 8},
		{Kind: isa.KindBranch, Target: 8, HasTarget: true},
		{Kind: isa.KindBranch, Target: 4, HasTarget: true},
		{Kind: isa.KindBranch, Target: 16, HasTarget: true},
	}}
	var buf [MaxSuccessors]isa.Addr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := g.SuccessorsInto(task, buf[:0]); len(s) != 4 {
			b.Fatal("bad successor count")
		}
	}
}

func BenchmarkSuccessorsAlloc(b *testing.B) {
	g := &Graph{Tasks: map[isa.Addr]*Task{}}
	task := &Task{Start: 0, Exits: []ExitSpec{
		{Kind: isa.KindCall, Target: 40, HasTarget: true, Return: 8},
		{Kind: isa.KindBranch, Target: 8, HasTarget: true},
		{Kind: isa.KindBranch, Target: 4, HasTarget: true},
		{Kind: isa.KindBranch, Target: 16, HasTarget: true},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := g.Successors(task); len(s) != 4 {
			b.Fatal("bad successor count")
		}
	}
}

func TestExecTable(t *testing.T) {
	g := validGraph(t)
	x := g.Exec()
	if g.Exec() != x {
		t.Fatal("Exec rebuilt the table on a second call")
	}
	for a := isa.Addr(0); a < 3; a++ {
		if row := x.TaskAt(a); row == nil || row.Task != g.Tasks[a] {
			t.Fatalf("TaskAt(%d) = %v, want the task keyed @%d", a, row, a)
		}
	}
	if x.TaskAt(3) != nil || x.TaskAt(1<<31) != nil {
		t.Fatal("TaskAt found a task outside the text")
	}
	row := x.TaskAt(0)
	if idx, ok := row.Exit(0, SlotSecondary); !ok || idx != 1 {
		t.Fatalf("Exit(0, secondary) = %d, %v; want 1, true", idx, ok)
	}
	if _, ok := row.Exit(1, SlotPrimary); ok {
		t.Fatal("Exit found an edge of another task")
	}
	want := []ExitEdge{{Ref: ExitRef{At: 0, Slot: SlotPrimary}, Index: 0}, {Ref: ExitRef{At: 0, Slot: SlotSecondary}, Index: 1}}
	if !reflect.DeepEqual(row.Edges, want) {
		t.Fatalf("Edges = %v, want %v", row.Edges, want)
	}

	// A task keyed outside the text gets no row; Finalize drops the
	// table so the next Exec sees the edit.
	g.Tasks[7] = &Task{Start: 7, Blocks: []isa.Addr{7}, ExitIndex: map[ExitRef]int{}}
	g.Tasks[1].ExitIndex[ExitRef{At: 1, Slot: SlotSecondary}] = 0
	g.Finalize()
	y := g.Exec()
	if y == x {
		t.Fatal("Finalize kept the stale table")
	}
	if y.TaskAt(7) != nil {
		t.Fatal("task keyed outside the text got a row")
	}
	if idx, ok := y.TaskAt(1).Exit(1, SlotSecondary); !ok || idx != 0 {
		t.Fatalf("rebuilt table misses the added edge: %d, %v", idx, ok)
	}
}

// TestExecConcurrentFirstUse races the first Exec calls on a fresh
// graph: every caller must get the one published table.
func TestExecConcurrentFirstUse(t *testing.T) {
	g := validGraph(t)
	const n = 8
	got := make([]*ExecTable, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Exec()
		}()
	}
	wg.Wait()
	for i, x := range got {
		if x == nil || x != g.Exec() {
			t.Fatalf("caller %d got table %p, want the published %p", i, x, g.Exec())
		}
	}
}
