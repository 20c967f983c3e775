package tfg

import (
	"multiscalar/internal/isa"
)

// ExitEdge is one region-leaving edge of a task in the execution table:
// an ExitIndex entry laid out flat, 12 bytes.
type ExitEdge struct {
	Ref   ExitRef
	Index int32
}

// ExecTask is one task's row of the execution table.
type ExecTask struct {
	*Task
	// Edges holds the task's ExitIndex entries in EdgeList order. A
	// header has at most MaxExits exits, so the list is a handful of
	// entries and a linear scan beats hashing.
	Edges []ExitEdge
}

// Exit resolves the edge (at, slot) of a control transfer inside the
// task: its exit index and true, or false for an edge internal to the
// task. It answers exactly as the ExitIndex lookup does.
func (x *ExecTask) Exit(at isa.Addr, slot EdgeSlot) (int, bool) {
	for _, e := range x.Edges {
		if e.Ref.At == at && e.Ref.Slot == slot {
			return int(e.Index), true
		}
	}
	return 0, false
}

// ExecTable is the flat view of a graph that the functional simulator
// runs on: tasks indexed by start address over the program text, each
// with its exit edges as a flat list. It is derived from Tasks and
// ExitIndex — which stay the source of truth — and is read-only once
// built.
type ExecTable struct {
	byAddr []*ExecTask // len(Prog.Code) entries; nil where no task starts
}

// TaskAt returns the row of the task starting at addr, or nil when addr
// starts no task or lies outside the text.
func (x *ExecTable) TaskAt(addr isa.Addr) *ExecTask {
	if int(addr) < len(x.byAddr) {
		return x.byAddr[addr]
	}
	return nil
}

// Exec returns g's execution table, built on first use and then shared
// by every machine that runs g. Finalize discards it, so a graph edited
// after it first ran must be re-finalized before it runs again.
func (g *Graph) Exec() *ExecTable {
	if x := g.exec.Load(); x != nil {
		return x
	}
	g.exec.CompareAndSwap(nil, buildExecTable(g))
	return g.exec.Load()
}

// buildExecTable lays g out flat: one row per task and one edge array
// shared by all rows. Tasks keyed outside the text get no row: no
// instruction can reach them.
func buildExecTable(g *Graph) *ExecTable {
	text := 0
	if g.Prog != nil {
		text = len(g.Prog.Code)
	}
	nTasks, nEdges := 0, 0
	for a, t := range g.Tasks {
		if int(a) < text {
			nTasks++
			nEdges += len(t.ExitIndex)
		}
	}
	x := &ExecTable{byAddr: make([]*ExecTask, text)}
	rows := make([]ExecTask, 0, nTasks)
	edges := make([]ExitEdge, 0, nEdges)
	for _, a := range sortAddrs(g.Tasks) {
		if int(a) >= text {
			break
		}
		t, lo := g.Tasks[a], len(edges)
		for _, e := range t.EdgeList() {
			edges = append(edges, ExitEdge{Ref: e.Ref, Index: int32(e.Index)})
		}
		rows = append(rows, ExecTask{Task: t, Edges: edges[lo:len(edges):len(edges)]})
		x.byAddr[a] = &rows[len(rows)-1]
	}
	return x
}
