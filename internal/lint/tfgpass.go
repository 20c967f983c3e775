// TFG-layer passes: structural header invariants, reachability, and the
// call/return balance analysis that guards the return address stack.
package lint

import (
	"fmt"

	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// Check IDs owned by the TFG layer (the structural IDs live in
// internal/tfg, next to the invariants they name).
const (
	CheckOrphanTask        = "tfg-orphan-task"
	CheckRASUnderflow      = "tfg-ras-underflow"
	CheckIndirectUncovered = "tfg-indirect-uncovered"
	CheckSingleExitRatio   = "tfg-single-exit-ratio"
)

func tfgPasses() []Pass {
	return []Pass{
		{
			Name: "tfg-structure",
			Doc:  "task header invariants: exit-slot budget, ExitIndex coherence, resolvable exit targets (shared with tfg.Validate)",
			Run:  runTFGStructure,
		},
		{
			Name: "tfg-orphan-task",
			Doc:  "tasks unreachable from the entry task via exit, call and return-point edges or a label root",
			Run:  runTFGOrphans,
		},
		{
			Name: "tfg-ras-balance",
			Doc:  "CALL/RETURN balance along TFG paths: a RETURN exit reachable with an empty call stack corrupts the RAS",
			Run:  runTFGRASBalance,
		},
		{
			Name: "tfg-indirect-coverage",
			Doc:  "indirect exits under a task-predictor spec with no target buffer have unpredictable targets",
			Run:  runTFGIndirectCoverage,
		},
		{
			Name: "tfg-single-exit",
			Doc:  "single-exit task ratio (degenerate TFGs make exit prediction trivial and results meaningless)",
			Run:  runTFGSingleExit,
		},
	}
}

// runTFGStructure maps the shared structural invariants of
// tfg.(*Graph).StructuralIssues onto error diagnostics.
func runTFGStructure(c *Context) []Diagnostic {
	if c.Graph == nil {
		return nil
	}
	var out []Diagnostic
	for _, iss := range c.Graph.StructuralIssues() {
		d := Diagnostic{
			Check: iss.Check, Sev: Error,
			Task: iss.Task, HasTask: true,
			Msg: iss.Msg,
		}
		if iss.HasAt {
			d.Addr, d.HasAddr = iss.At, true
			d.Line = c.lineOf(iss.At)
		}
		out = append(out, d)
	}
	return out
}

// runTFGOrphans flags tasks no control flow can reach: not the entry
// task, not addressed by any label (labels are the legal targets of
// indirect transfers), and not reachable from those roots via exit
// targets or call return points. Orphans are dead weight in the static
// task count and usually betray a corrupted graph or dead code.
func runTFGOrphans(c *Context) []Diagnostic {
	g := c.Graph
	if g == nil || g.Prog == nil {
		return nil
	}
	seen := make(map[isa.Addr]bool)
	var stack []isa.Addr
	push := func(a isa.Addr) {
		if g.Tasks[a] != nil && !seen[a] {
			seen[a] = true
			stack = append(stack, a)
		}
	}
	push(g.Prog.Entry)
	for _, a := range g.Prog.Labels {
		push(a)
	}
	var succ [tfg.MaxSuccessors]isa.Addr
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.SuccessorsInto(g.Tasks[a], succ[:0]) {
			push(s)
		}
	}
	var out []Diagnostic
	for _, t := range g.TaskList() {
		if seen[t.Start] {
			continue
		}
		out = append(out, Diagnostic{
			Check: CheckOrphanTask, Sev: Warn,
			Task: t.Start, HasTask: true, Line: c.lineOf(t.Start),
			Msg: "task is unreachable from the entry task and is not a label target",
		})
	}
	return out
}

// rasDepthCap bounds the abstract call-stack depth tracked by the
// balance analysis; deeper nesting saturates (recursion would otherwise
// make the state space unbounded).
const rasDepthCap = 64

// runTFGRASBalance walks the TFG from the entry task tracking an
// abstract call-stack depth: branch exits preserve it, CALL exits enter
// the callee one level deeper and (summarizing a balanced callee)
// continue at the return point at the same level, RETURN exits pop. A
// RETURN exit reachable at depth zero pops an empty stack — the §4
// return-address-stack corruption this detector exists for: from that
// point on every return target prediction is garbage.
func runTFGRASBalance(c *Context) []Diagnostic {
	g := c.Graph
	if g == nil || g.Prog == nil || g.EntryTask() == nil {
		return nil
	}
	type state struct {
		task  isa.Addr
		depth int
	}
	seen := map[state]bool{}
	flagged := map[isa.Addr]bool{}
	var out []Diagnostic
	stack := []state{{g.Prog.Entry, 0}}
	seen[stack[0]] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := g.Tasks[s.task]
		if t == nil {
			continue
		}
		push := func(a isa.Addr, depth int) {
			if depth > rasDepthCap {
				depth = rasDepthCap
			}
			n := state{a, depth}
			if g.Tasks[a] != nil && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
		for i, e := range t.Exits {
			switch {
			case e.Kind == isa.KindBranch:
				if e.HasTarget {
					push(e.Target, s.depth)
				}
			case e.Kind.IsCall():
				if e.HasTarget {
					push(e.Target, s.depth+1)
				}
				push(e.Return, s.depth)
			case e.Kind == isa.KindReturn:
				if s.depth == 0 && !flagged[t.Start] {
					flagged[t.Start] = true
					d := Diagnostic{
						Check: CheckRASUnderflow, Sev: Error,
						Task: t.Start, HasTask: true,
						Msg: "RETURN exit is reachable from the entry with an empty call stack; the RAS underflows and every later return mispredicts",
					}
					// Attribute the finding to a return instruction
					// mapped to this exit when the index is coherent.
					for _, edge := range t.EdgeList() {
						if edge.Index == i {
							d.Addr, d.HasAddr = edge.Ref.At, true
							d.Line = c.lineOf(edge.Ref.At)
							break
						}
					}
					out = append(out, d)
				}
				// Depth > 0 returns to the caller's return point, which
				// the call summary edge already explored.
			default:
				// Indirect exits: targets unknown statically; their
				// callees are summarized by the Return edge above.
			}
		}
	}
	return out
}

// runTFGIndirectCoverage warns about tasks whose header contains an
// indirect exit while the predictor spec is a full task predictor with
// no target buffer: the header carries no target for those exits
// (Table 1), so every dynamic instance is an unpredictable task switch.
// Exit-only and target-only specs predict no task targets to cover.
func runTFGIndirectCoverage(c *Context) []Diagnostic {
	sp := c.Config.spec()
	if c.Graph == nil || sp == nil || sp.Class() != engine.ClassTask || sp.HasTarget() {
		return nil
	}
	var out []Diagnostic
	for _, t := range c.Graph.TaskList() {
		if !t.HasIndirectExit() {
			continue
		}
		out = append(out, Diagnostic{
			Check: CheckIndirectUncovered, Sev: Warn,
			Task: t.Start, HasTask: true, Line: c.lineOf(t.Start),
			Msg: "task has an indirect exit but the predictor spec has no target buffer; its targets cannot be predicted",
		})
	}
	return out
}

// degenerateSingleExitRatio is the single-exit share above which a TFG
// stops exercising exit prediction at all.
const degenerateSingleExitRatio = 0.95

// runTFGSingleExit reports the share of single-exit static tasks — the
// trivially predictable case §6.1 optimizes — and warns when the graph
// is so dominated by them that prediction results are meaningless.
func runTFGSingleExit(c *Context) []Diagnostic {
	g := c.Graph
	if g == nil || g.NumTasks() == 0 {
		return nil
	}
	single := 0
	for _, t := range g.Tasks {
		if t.SingleExit() {
			single++
		}
	}
	ratio := float64(single) / float64(g.NumTasks())
	d := Diagnostic{
		Check: CheckSingleExitRatio, Sev: Info,
		Msg: fmt.Sprintf("%d of %d static tasks (%.1f%%) are single-exit", single, g.NumTasks(), 100*ratio),
	}
	if ratio >= degenerateSingleExitRatio && g.NumTasks() >= 8 {
		d.Sev = Warn
		d.Msg += "; the TFG is degenerate and exit prediction is trivial"
	}
	return []Diagnostic{d}
}
