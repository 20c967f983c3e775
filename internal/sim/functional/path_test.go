package functional

import (
	"reflect"
	"strings"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// recordRun runs g's program to halt with its branch column recorded.
func recordRun(t *testing.T, g *tfg.Graph) (*trace.Trace, BranchBits, Stats) {
	t.Helper()
	var br Branches
	tr, stats, err := Run(g, Config{Branches: &br})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr, br.Bits(), stats
}

// TestWalkerMatchesRun walks every task of a recorded run from its
// start and the branch column. The paths must account for every executed
// instruction and every recorded branch, and each must end with the
// control transfer that left its task, through the exit the trace
// recorded (a halt on the last step).
func TestWalkerMatchesRun(t *testing.T) {
	g := buildTestGraph(t)
	tr, bits, stats := recordRun(t, g)
	w := NewWalker(g, bits)
	var instrs uint64
	branches := 0
	for i, s := range tr.Steps {
		path, err := w.Task(s.Task, s.Exit)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		instrs += uint64(len(path))
		if path[0].PC != s.Task {
			t.Fatalf("step %d: path starts @%d, task @%d", i, path[0].PC, s.Task)
		}
		last := g.Prog.Code[path[len(path)-1].PC]
		if !last.IsControl() {
			t.Fatalf("step %d: path ends with %v, not a control transfer", i, last)
		}
		if (s.Exit == trace.HaltExit) != (last.Op == isa.Halt) {
			t.Fatalf("step %d: exit %d but path ends with %v", i, s.Exit, last)
		}
		for _, pi := range path {
			if g.Prog.Code[pi.PC].Op == isa.Br {
				branches++
			} else if pi.Taken {
				t.Fatalf("step %d: non-branch @%d marked taken", i, pi.PC)
			}
		}
	}
	if instrs != stats.Instrs {
		t.Fatalf("paths hold %d instructions, the run executed %d", instrs, stats.Instrs)
	}
	if branches != bits.n || w.pos != bits.n {
		t.Fatalf("paths hold %d branches and consumed %d outcomes, the run recorded %d", branches, w.pos, bits.n)
	}
}

// TestWalkerSeesBothBranchDirections: the walked paths report the
// two-target conditional branch both taken and not taken.
func TestWalkerSeesBothBranchDirections(t *testing.T) {
	g := buildTestGraph(t)
	tr, bits, _ := recordRun(t, g)
	w := NewWalker(g, bits)
	taken, notTaken := 0, 0
	for i, s := range tr.Steps {
		path, err := w.Task(s.Task, s.Exit)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, pi := range path {
			if g.Prog.Code[pi.PC].Op != isa.Br {
				continue
			}
			if pi.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken == 0 || notTaken == 0 {
		t.Fatalf("branch directions not both walked: taken=%d notTaken=%d", taken, notTaken)
	}
}

// TestBranchesLeaveTraceUnchanged: recording the branch column does not
// change the run.
func TestBranchesLeaveTraceUnchanged(t *testing.T) {
	g := buildTestGraph(t)
	plain, plainStats, err := Run(g, Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, _, stats := recordRun(t, g)
	if !reflect.DeepEqual(plain.Steps, tr.Steps) || plainStats != stats {
		t.Fatalf("recording branches changed the run")
	}
}

// TestBranchBitsImmutable: a view keeps the outcomes recorded when it
// was taken, and growth never rewrites a word a view holds.
func TestBranchBitsImmutable(t *testing.T) {
	outcome := func(i int) bool { return i%3 == 0 || i%7 == 2 }
	var b Branches
	var views []BranchBits
	for i := 0; i < 700; i++ {
		if i%50 == 0 || i == 64 || i == 128 {
			views = append(views, b.Bits())
		}
		b.push(outcome(i))
	}
	views = append(views, b.Bits())
	for _, v := range views {
		for i := 0; i < v.n; i++ {
			if v.bit(i) != outcome(i) {
				t.Fatalf("view of %d outcomes: bit %d changed", v.n, i)
			}
		}
		if len(v.words) != v.n/64 || cap(v.words) != len(v.words) {
			t.Fatalf("view of %d outcomes holds %d words (cap %d)", v.n, len(v.words), cap(v.words))
		}
	}
}

// TestWalkerErrors: a path the walk cannot recover is an error, never a
// panic.
func TestWalkerErrors(t *testing.T) {
	g := buildTestGraph(t)
	tr, bits, _ := recordRun(t, g)
	first := tr.Steps[0]

	if _, err := NewWalker(g, bits).Task(first.Task+1, first.Exit); err == nil {
		t.Error("walking from a non-task address succeeded")
	}
	// Without branch outcomes the walk stops at the first branch.
	var err error
	w := NewWalker(g, BranchBits{})
	for _, s := range tr.Steps {
		if _, err = w.Task(s.Task, s.Exit); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("walking without branch outcomes: %v", err)
	}
	if _, err := NewWalker(g, bits).Task(first.Task, first.Exit+1); err == nil ||
		!strings.Contains(err.Error(), "the trace recorded") {
		t.Errorf("walking against the wrong exit: %v", err)
	}

	// Make every return internal: the walk meets a dynamic transfer that
	// is not an exit.
	for _, task := range g.Tasks {
		for ref := range task.ExitIndex {
			if g.Prog.Code[ref.At].Op == isa.Ret {
				delete(task.ExitIndex, ref)
			}
		}
	}
	g.Finalize()
	w = NewWalker(g, bits)
	for _, s := range tr.Steps {
		if _, err = w.Task(s.Task, s.Exit); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "is not an exit") {
		t.Errorf("walking through an internal return: %v", err)
	}
}
