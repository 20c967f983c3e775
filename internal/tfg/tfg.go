// Package tfg defines the Task Flow Graph: the task-level view of a
// Multiscalar executable.
//
// A Task is an encapsulated region of the program's control flow graph with
// a single entry (its start address) and a bounded number of typed exits
// (MaxExits, four in the paper and here). The task header carries, per exit,
// the information of the paper's Table 1: the exit's control-flow type, the
// statically-known target address when one exists (BRANCH and CALL exits),
// and the return address pushed by CALL and INDIRECT_CALL exits.
package tfg

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
)

// MaxExits is the architectural limit on exits per task header.
const MaxExits = 4

// ExitSpec is one exit record of a task header.
type ExitSpec struct {
	// Kind is the control-flow type of the exit instruction(s) mapped to
	// this exit point (Table 1).
	Kind isa.ControlKind
	// Target is the exit's statically-known target. Valid only when
	// HasTarget is true (BRANCH and CALL exits; null in the header
	// otherwise, exactly as the paper's compiler leaves it).
	Target isa.Addr
	// HasTarget reports whether Target is meaningful.
	HasTarget bool
	// Return is the address executed after a called routine returns; it is
	// pushed onto the hardware return address stack when a CALL or
	// INDIRECT_CALL exit is taken. Valid only when Kind.IsCall().
	Return isa.Addr
}

// String renders the exit spec compactly, e.g. "call->@12 ret@40".
func (e ExitSpec) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.HasTarget {
		fmt.Fprintf(&b, "->@%d", e.Target)
	}
	if e.Kind.IsCall() {
		fmt.Fprintf(&b, " ret@%d", e.Return)
	}
	return b.String()
}

// EdgeSlot identifies which outgoing edge of a control transfer an exit
// annotation refers to.
type EdgeSlot uint8

const (
	// SlotPrimary is TargetA of a Br, the sole target of J/Jal, or the
	// dynamic target of Ret/Jr/Jalr.
	SlotPrimary EdgeSlot = iota
	// SlotSecondary is TargetB of a Br.
	SlotSecondary
)

// ExitRef names one outgoing control-flow edge of a task:
// the address of the control transfer instruction and the edge slot.
type ExitRef struct {
	At   isa.Addr
	Slot EdgeSlot
}

// Task is one node of the Task Flow Graph.
type Task struct {
	// Start is the task's entry address; it is also the task's identity.
	Start isa.Addr
	// Name is a diagnostic label (usually derived from the enclosing
	// function).
	Name string
	// Blocks lists the start addresses of the basic blocks in the task's
	// region, in ascending order. Start is always Blocks[0]... (not
	// necessarily: Blocks is sorted by address and Start is a member).
	Blocks []isa.Addr
	// Exits is the task header's exit table, at most MaxExits entries.
	Exits []ExitSpec
	// ExitIndex maps each region-leaving edge to its exit number in Exits.
	// Edges internal to the task are absent. Halt edges are absent (a Halt
	// terminates the dynamic task stream rather than transferring control).
	ExitIndex map[ExitRef]int
	// NumInstr is the static instruction count of the region.
	NumInstr int
	// Halts reports whether the region contains a Halt instruction.
	Halts bool
}

// NumExits returns the number of exit points in the header.
func (t *Task) NumExits() int { return len(t.Exits) }

// Edge pairs one region-leaving control-flow edge with its header exit.
type Edge struct {
	// Ref names the edge (instruction address and slot).
	Ref ExitRef
	// Index is the edge's exit number in the task header.
	Index int
	// Spec is the header record the edge maps to. It is the zero ExitSpec
	// when Index is out of range (an incoherent graph; see
	// StructuralIssues).
	Spec ExitSpec
}

// EdgeList returns the task's exit edges in ascending (address, slot)
// order — a deterministic iteration over ExitIndex.
func (t *Task) EdgeList() []Edge {
	out := make([]Edge, 0, len(t.ExitIndex))
	for ref, idx := range t.ExitIndex {
		e := Edge{Ref: ref, Index: idx}
		if idx >= 0 && idx < len(t.Exits) {
			e.Spec = t.Exits[idx]
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ref.At != out[j].Ref.At {
			return out[i].Ref.At < out[j].Ref.At
		}
		return out[i].Ref.Slot < out[j].Ref.Slot
	})
	return out
}

// HasIndirectExit reports whether any header exit needs a target buffer
// (KindIndirectBranch or KindIndirectCall).
func (t *Task) HasIndirectExit() bool {
	for _, e := range t.Exits {
		if e.Kind.IsIndirect() {
			return true
		}
	}
	return false
}

// SingleExit reports whether the task has exactly one exit point — the
// trivially-predictable case the paper's §6.1 optimization exploits.
func (t *Task) SingleExit() bool { return len(t.Exits) == 1 }

// Graph is a Task Flow Graph over a program.
type Graph struct {
	Prog *program.Program
	// Tasks maps task start addresses to tasks.
	Tasks map[isa.Addr]*Task
	// Order lists task start addresses in ascending order.
	Order []isa.Addr

	exec atomic.Pointer[ExecTable] // memoized Exec view; nil until first use
}

// TaskAt returns the task starting at addr, or nil.
func (g *Graph) TaskAt(addr isa.Addr) *Task { return g.Tasks[addr] }

// NumTasks returns the number of static tasks.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// EntryTask returns the task at the program entry, or nil if the graph has
// no task there.
func (g *Graph) EntryTask() *Task {
	if g.Prog == nil {
		return nil
	}
	return g.Tasks[g.Prog.Entry]
}

// TaskList returns the tasks in ascending start-address order. Unlike
// Order it never goes stale: the order is recomputed from the map.
func (g *Graph) TaskList() []*Task {
	addrs := sortAddrs(g.Tasks)
	out := make([]*Task, len(addrs))
	for i, a := range addrs {
		out[i] = g.Tasks[a]
	}
	return out
}

// MaxSuccessors is the largest number of distinct statically-known
// successor starts a task header can name: each of the MaxExits slots
// contributes at most a target and a call return point.
const MaxSuccessors = 2 * MaxExits

// SuccessorsInto returns the statically-known successor task starts of
// t: every exit target and every call return point, deduplicated, in
// ascending order. Dynamic targets (returns, indirect transfers)
// contribute nothing. It appends into buf[:0] and returns the filled
// slice. With cap(buf) >=
// MaxSuccessors it performs no allocation, which matters in the lint
// and dataflow loops that walk every task of every workload. The
// header holds at most MaxSuccessors candidates, so dedup and ordering
// run as insertion into a small sorted slice — no map.
func (g *Graph) SuccessorsInto(t *Task, buf []isa.Addr) []isa.Addr {
	out := buf[:0]
	insert := func(a isa.Addr) {
		i := len(out)
		for i > 0 && out[i-1] > a {
			i--
		}
		if i > 0 && out[i-1] == a {
			return
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = a
	}
	for _, e := range t.Exits {
		if e.HasTarget {
			insert(e.Target)
		}
		if e.Kind.IsCall() {
			insert(e.Return)
		}
	}
	return out
}

// Stable check IDs for the structural invariants of a Task Flow Graph.
// They are the single source of truth shared by Validate (which reports the
// first violation as an error) and the internal/lint passes (which report
// all of them as diagnostics).
const (
	CheckTaskKey       = "tfg-task-key"       // map key disagrees with Task.Start
	CheckNoBlocks      = "tfg-no-blocks"      // task region has no basic blocks
	CheckExitOverflow  = "tfg-exit-overflow"  // more than MaxExits header slots
	CheckExitCoherence = "tfg-exit-coherence" // ExitIndex or exit kind incoherent
	CheckExitTarget    = "tfg-exit-target"    // exit target/return not a task start
)

// Issue is one structural invariant violation found in a graph.
type Issue struct {
	// Check is the stable ID of the violated invariant.
	Check string
	// Task is the start address of the offending task.
	Task isa.Addr
	// At is the instruction address involved, valid when HasAt is true.
	At    isa.Addr
	HasAt bool
	// Msg describes the violation (without task/position prefix).
	Msg string
}

// StructuralIssues checks the TFG invariants and returns every violation:
//   - every task is keyed by its start address and has at least one block,
//   - every task respects MaxExits and has a coherent ExitIndex,
//   - exit specs agree with the control kind of the exit instruction,
//   - every statically-known exit target (and call return point) is itself
//     a task start.
//
// The result is deterministic: tasks in ascending start order, edges in
// ascending (address, slot) order.
func (g *Graph) StructuralIssues() []Issue {
	var out []Issue
	for _, addr := range sortAddrs(g.Tasks) {
		t := g.Tasks[addr]
		add := func(check, msg string) {
			out = append(out, Issue{Check: check, Task: addr, Msg: msg})
		}
		addAt := func(check string, at isa.Addr, msg string) {
			out = append(out, Issue{Check: check, Task: addr, At: at, HasAt: true, Msg: msg})
		}
		if t.Start != addr {
			add(CheckTaskKey, fmt.Sprintf("task keyed @%d has Start=@%d", addr, t.Start))
		}
		if len(t.Exits) > MaxExits {
			add(CheckExitOverflow, fmt.Sprintf("%d exits exceed the %d-slot header", len(t.Exits), MaxExits))
		}
		if len(t.Blocks) == 0 {
			add(CheckNoBlocks, "task has no blocks")
		}
		for _, e := range t.EdgeList() {
			if e.Index < 0 || e.Index >= len(t.Exits) {
				addAt(CheckExitCoherence, e.Ref.At,
					fmt.Sprintf("edge %v maps to exit %d of %d", e.Ref, e.Index, len(t.Exits)))
				continue
			}
			if int(e.Ref.At) >= len(g.Prog.Code) {
				addAt(CheckExitCoherence, e.Ref.At,
					fmt.Sprintf("exit instruction @%d out of range", e.Ref.At))
				continue
			}
			in := g.Prog.Code[e.Ref.At]
			if k := in.Control(); k != e.Spec.Kind {
				addAt(CheckExitCoherence, e.Ref.At,
					fmt.Sprintf("exit @%d kind %v != spec kind %v", e.Ref.At, k, e.Spec.Kind))
			}
		}
		for i, spec := range t.Exits {
			if spec.HasTarget && g.Tasks[spec.Target] == nil {
				add(CheckExitTarget, fmt.Sprintf("exit %d target @%d is not a task start", i, spec.Target))
			}
			if spec.Kind.IsCall() && g.Tasks[spec.Return] == nil {
				add(CheckExitTarget, fmt.Sprintf("exit %d call return point @%d is not a task start", i, spec.Return))
			}
		}
	}
	return out
}

// Validate checks the TFG invariants of StructuralIssues and reports the
// first violation as an error (nil when the graph is well-formed). The
// full diagnostic view of the same checks lives in internal/lint.
func (g *Graph) Validate() error {
	if iss := g.StructuralIssues(); len(iss) > 0 {
		i := iss[0]
		return fmt.Errorf("tfg: [%s] task @%d: %s", i.Check, i.Task, i.Msg)
	}
	return nil
}

// sortAddrs returns the keys of m in ascending order.
func sortAddrs(m map[isa.Addr]*Task) []isa.Addr {
	out := make([]isa.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Finalize recomputes Order after tasks have been inserted, and drops
// any execution table built from the graph's earlier state.
func (g *Graph) Finalize() {
	g.Order = sortAddrs(g.Tasks)
	g.exec.Store(nil)
}

// StaticExitHistogram returns, for n = 1..MaxExits, the number of static
// tasks with n exit points (index 0 counts zero-exit tasks, which occur
// only for halt-terminated regions). This is the static series of the
// paper's Figure 3.
func (g *Graph) StaticExitHistogram() [MaxExits + 1]int {
	var h [MaxExits + 1]int
	for _, t := range g.Tasks {
		h[len(t.Exits)]++
	}
	return h
}

// StaticExitKinds returns the count of static exit points by control kind
// (the static series of the paper's Figure 4).
func (g *Graph) StaticExitKinds() map[isa.ControlKind]int {
	m := make(map[isa.ControlKind]int)
	for _, t := range g.Tasks {
		for _, e := range t.Exits {
			m[e.Kind]++
		}
	}
	return m
}
