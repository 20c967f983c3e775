package functional_test

import (
	"strings"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

// TestExecTableMatchesExitIndex checks the interpreter's flat execution
// table against the graph's maps on every workload: for every address of
// the text the table finds exactly the task keyed there, and for every
// task, every instruction of its blocks and both edge slots it resolves
// the same exit index as the ExitIndex lookup, or "internal edge" alike.
func TestExecTableMatchesExitIndex(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			g, err := w.Graph()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := program.BuildCFG(g.Prog)
			if err != nil {
				t.Fatal(err)
			}
			x := g.Exec()
			for a := range g.Prog.Code {
				row, want := x.TaskAt(isa.Addr(a)), g.TaskAt(isa.Addr(a))
				if (row == nil) != (want == nil) || (row != nil && row.Task != want) {
					t.Fatalf("TaskAt(@%d) disagrees with the task map", a)
				}
			}
			edges := 0
			for _, start := range g.Order {
				task, row := g.Tasks[start], x.TaskAt(start)
				for _, b := range task.Blocks {
					blk := cfg.Blocks[b]
					for at := blk.Start; at <= blk.End; at++ {
						for _, slot := range []tfg.EdgeSlot{tfg.SlotPrimary, tfg.SlotSecondary} {
							want, wantExit := task.ExitIndex[tfg.ExitRef{At: at, Slot: slot}]
							got, gotExit := row.Exit(at, slot)
							if got != want || gotExit != wantExit {
								t.Fatalf("task @%d edge (@%d, %d): table %d/%v, ExitIndex %d/%v",
									start, at, slot, got, gotExit, want, wantExit)
							}
							if wantExit {
								edges++
							}
						}
					}
				}
				if len(row.Edges) != len(task.ExitIndex) {
					t.Fatalf("task @%d: %d table edges, %d in ExitIndex", start, len(row.Edges), len(task.ExitIndex))
				}
			}
			if edges == 0 {
				t.Fatal("no exit edge was compared")
			}
		})
	}
}

// TestExecTableOutsideText runs hand-built graphs whose entry or exit
// target lies outside the program text, or names no task: each run must
// end in the interpreter's error, never a panic.
func TestExecTableOutsideText(t *testing.T) {
	branch := func(target isa.Addr) []tfg.ExitSpec {
		return []tfg.ExitSpec{{Kind: isa.KindBranch, Target: target, HasTarget: true}}
	}
	exit0 := func() map[tfg.ExitRef]int { return map[tfg.ExitRef]int{{At: 0, Slot: tfg.SlotPrimary}: 0} }
	cases := []struct {
		name  string
		code  []isa.Instr
		entry isa.Addr
		tasks []*tfg.Task
		want  string
	}{
		{
			name:  "entry outside text",
			code:  []isa.Instr{{Op: isa.Halt}},
			entry: 5,
			tasks: []*tfg.Task{
				{Start: 0, Blocks: []isa.Addr{0}, Halts: true},
				{Start: 5, Blocks: []isa.Addr{5}, Halts: true},
			},
			want: "entry @5 is not a task start",
		},
		{
			name: "exit target outside text",
			code: []isa.Instr{{Op: isa.J, TargetA: 9}},
			tasks: []*tfg.Task{
				{Start: 0, Blocks: []isa.Addr{0}, Exits: branch(9), ExitIndex: exit0()},
				{Start: 9, Blocks: []isa.Addr{9}, Halts: true},
			},
			want: "transfer to @9 outside text of 1 words",
		},
		{
			name: "exit target not a task",
			code: []isa.Instr{{Op: isa.J, TargetA: 1}, {Op: isa.Halt}},
			tasks: []*tfg.Task{
				{Start: 0, Blocks: []isa.Addr{0}, Exits: branch(1), ExitIndex: exit0()},
			},
			want: "task @0 exit 0 targets @1, which is not a task start",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := program.New()
			p.Code, p.Entry = c.code, c.entry
			g := &tfg.Graph{Prog: p, Tasks: map[isa.Addr]*tfg.Task{}}
			for _, task := range c.tasks {
				g.Tasks[task.Start] = task
			}
			g.Finalize()
			_, _, err := functional.Run(g, functional.Config{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}

var machineSink *functional.Machine

// TestNewMachineAllocs pins that a machine costs only itself and its
// data memory: the execution table is built once per graph, never per
// machine.
func TestNewMachineAllocs(t *testing.T) {
	w, err := workload.ByName("exprc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	machineSink = functional.NewMachine(g, functional.Config{})
	if n := testing.AllocsPerRun(20, func() {
		machineSink = functional.NewMachine(g, functional.Config{})
	}); n > 2 {
		t.Fatalf("NewMachine allocates %v times per call, want at most 2", n)
	}
}
