package taskform_test

import (
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

// TestTaskPathsAreDeterministic checks, on every workload's graph, the
// two properties that let a task's instruction path be recovered from
// its start address and its conditional-branch outcomes alone (the ring
// timing model walks static code this way instead of re-running the
// interpreter): every call, indirect jump and return ends its task, and
// no internal edge points backward, so each instruction runs at most
// once per task.
func TestTaskPathsAreDeterministic(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := program.BuildCFG(g.Prog)
		if err != nil {
			t.Fatal(err)
		}
		code := g.Prog.Code
		for _, task := range g.TaskList() {
			region := map[isa.Addr]bool{}
			for _, b := range task.Blocks {
				region[b] = true
			}
			// internal checks one edge of the control transfer at a: an
			// edge that is no exit must stay inside the region and point
			// forward.
			internal := func(at isa.Addr, slot tfg.EdgeSlot, target isa.Addr) {
				if _, isExit := task.ExitIndex[tfg.ExitRef{At: at, Slot: slot}]; isExit {
					return
				}
				if !region[target] || target <= at {
					t.Errorf("%s: task @%d: internal edge @%d -> @%d points backward or out of the region",
						name, task.Start, at, target)
				}
			}
			for _, b := range task.Blocks {
				blk := cfg.Blocks[b]
				if blk == nil {
					t.Fatalf("%s: task @%d: block @%d not in the CFG", name, task.Start, b)
				}
				for a := blk.Start; a <= blk.End; a++ {
					switch in := code[a]; in.Op {
					case isa.Jal, isa.Jr, isa.Jalr, isa.Ret:
						if _, isExit := task.ExitIndex[tfg.ExitRef{At: a, Slot: tfg.SlotPrimary}]; !isExit {
							t.Errorf("%s: task @%d: %v @%d is not an exit", name, task.Start, in.Op, a)
						}
					case isa.Br:
						internal(a, tfg.SlotPrimary, in.TargetA)
						internal(a, tfg.SlotSecondary, in.TargetB)
					case isa.J:
						internal(a, tfg.SlotPrimary, in.TargetA)
					case isa.Halt:
					default:
						if a == blk.End {
							internal(a, tfg.SlotPrimary, a+1)
						}
					}
				}
			}
		}
	}
}
