// Dataflow-backed passes: sound fixed-point upgrades of the early local
// heuristics, built on the internal/dataflow monotone solver. The
// call-depth pass replaces the old cfg-ras syntactic nesting walk; the
// indirect-targets pass refines the old graph-global CTTB pressure
// estimate to per-site inferred target sets.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
)

// Check IDs owned by the dataflow layer.
const (
	CheckCallDepth       = "tfg-call-depth"
	CheckIndirectTargets = "tfg-indirect-targets"
	CheckDOLCAlias       = "tfg-dolc-alias"
	CheckDeadExit        = "tfg-dead-exit"
)

func dataflowPasses() []Pass {
	return []Pass{
		{
			Name: "tfg-call-depth",
			Doc:  "interval analysis of call-stack depth with recursion detection; flags static RAS overflow (replaces the cfg-ras nesting heuristic)",
			Run:  runTFGCallDepth,
		},
		{
			Name: "tfg-indirect-targets",
			Doc:  "per-indirect-exit-site target inference (dispatch tables, address-taken functions, label roots) and per-site CTTB pressure",
			Run:  runTFGIndirectTargets,
		},
		{
			Name: "tfg-dolc-alias",
			Doc:  "bounded enumeration of DOLC path histories per task; warns when distinct histories fold to one predictor index",
			Run:  runTFGDOLCAlias,
		},
		{
			Name: "tfg-dead-exit",
			Doc:  "backward/forward liveness of header exit slots; flags slots never taken on any entry-reachable path",
			Run:  runTFGDeadExit,
		},
	}
}

// dfFacts caches the view and the solved analyses for one context, so
// the four passes (and the -report builder) share a single fixed-point
// computation.
type dfFacts struct {
	view    *dataflow.View
	depth   *dataflow.CallDepthResult
	hist    *dataflow.Result[dataflow.HistSet]
	reach   *dataflow.Result[bool]
	coreach *dataflow.Result[bool]
	dead    []dataflow.DeadExit
	err     error
}

// dataflowFacts lazily solves the analyses over the context's graph.
func (c *Context) dataflowFacts() *dfFacts {
	if c.df != nil {
		return c.df
	}
	c.df = &dfFacts{}
	f := c.df
	if c.Graph == nil {
		return f
	}
	f.view = dataflow.NewView(c.Graph)
	solve := func(err error) {
		if err != nil && f.err == nil {
			f.err = err
		}
	}
	var err error
	f.depth, err = dataflow.CallDepth(f.view)
	solve(err)
	f.hist, err = dataflow.DOLCHistories(f.view)
	solve(err)
	f.reach, err = dataflow.Reachable(f.view)
	solve(err)
	f.coreach, err = dataflow.Coreachable(f.view)
	solve(err)
	f.dead, err = dataflow.DeadExits(f.view, c.CFG)
	solve(err)
	return f
}

// RASVerdict values of the call-depth analysis.
const (
	// RASFits: the deepest static call chain fits the configured RAS.
	RASFits = "fits"
	// RASOverflow: a static call chain exceeds the RAS; the deepest
	// nesting is guaranteed to shed frames and mispredict returns.
	RASOverflow = "may-overflow"
	// RASUnbounded: recursion (or saturated nesting) makes the depth
	// statically unbounded; no static guarantee either way.
	RASUnbounded = "unbounded"
)

// rasVerdict classifies the analysis result against a RAS capacity.
func rasVerdict(d *dataflow.CallDepthResult, depth int) string {
	switch {
	case len(d.Recursive) > 0 || d.MaxHi >= dataflow.DepthCap:
		return RASUnbounded
	case d.MaxHi > depth:
		return RASOverflow
	default:
		return RASFits
	}
}

// runTFGCallDepth reports the program's call-depth interval profile and
// judges the configured RAS capacity against it. Unlike the syntactic
// nesting walk it replaces, the interval analysis distinguishes genuine
// recursion (a cycle through a call edge) from plain branch loops, and
// its depth bounds come from a fixed point over the same call-summary
// edges the RAS models dynamically.
func runTFGCallDepth(c *Context) []Diagnostic {
	if c.Graph == nil || c.Graph.EntryTask() == nil {
		return nil
	}
	f := c.dataflowFacts()
	if f.err != nil {
		return []Diagnostic{{Check: CheckCallDepth, Sev: Error, Msg: fmt.Sprintf("analysis failed: %v", f.err)}}
	}
	if !f.depth.Result.Converged {
		return []Diagnostic{{
			Check: CheckCallDepth, Sev: Warn,
			Msg: "call-depth analysis hit the iteration guard before converging; no verdict",
		}}
	}
	var out []Diagnostic
	if n := len(f.depth.Recursive); n > 0 {
		out = append(out, Diagnostic{
			Check: CheckCallDepth, Sev: Info,
			Task: f.depth.Recursive[0], HasTask: true, Line: c.lineOf(f.depth.Recursive[0]),
			Msg: fmt.Sprintf("recursion detected (%d task(s) in call cycles, first %s); call depth is statically unbounded", n, taskLabel(c, f.depth.Recursive[0])),
		})
	} else {
		out = append(out, Diagnostic{
			Check: CheckCallDepth, Sev: Info,
			Msg: fmt.Sprintf("maximum static call depth %d; no recursion", f.depth.MaxHi),
		})
	}
	sp := c.Config.spec()
	if sp == nil || sp.Class() != engine.ClassTask {
		// No predictor, or an exit-only, target-only or perfect spec:
		// no return addresses are predicted, so RAS sizing is moot.
		return out
	}
	depth := sp.RASDepth()
	switch v := rasVerdict(f.depth, depth); v {
	case RASUnbounded:
		out = append(out, Diagnostic{
			Check: CheckCallDepth, Sev: Info,
			Msg: fmt.Sprintf("RAS verdict %q: call depth statically unbounded; the circular %d-entry RAS sheds the oldest frames by design", v, depth),
		})
	case RASOverflow:
		out = append(out, Diagnostic{
			Check: CheckCallDepth, Sev: Warn,
			Msg: fmt.Sprintf("RAS verdict %q: static call depth reaches %d but the RAS holds %d entries; the deepest chain overflows and mispredicts returns", v, f.depth.MaxHi, depth),
		})
	default:
		out = append(out, Diagnostic{
			Check: CheckCallDepth, Sev: Info,
			Msg: fmt.Sprintf("RAS verdict %q: static call depth %d fits the %d-entry RAS", v, f.depth.MaxHi, depth),
		})
	}
	return out
}

func taskLabel(c *Context, a isa.Addr) string {
	if t := c.Graph.Tasks[a]; t != nil && t.Name != "" {
		return fmt.Sprintf("%s@%d", t.Name, a)
	}
	return fmt.Sprintf("task@%d", a)
}

// runTFGIndirectTargets reports the inferred target set of every
// indirect exit site and, when a CTTB is configured, the per-site
// pressure on it: a site whose inferred target population alone exceeds
// the table guarantees aliasing no matter how well the index spreads.
func runTFGIndirectTargets(c *Context) []Diagnostic {
	if c.Graph == nil {
		return nil
	}
	f := c.dataflowFacts()
	if f.err != nil || f.view == nil {
		return nil
	}
	var cttbEntries int
	if sp := c.Config.spec(); sp != nil {
		if d := sp.CTTBDOLC(); d != nil {
			cttbEntries = d.TableSize()
		}
	}
	var out []Diagnostic
	totalTargets := 0
	for _, s := range f.view.Indirect {
		totalTargets += len(s.Targets)
		d := Diagnostic{
			Check: CheckIndirectTargets, Sev: Info,
			Task: s.Task, HasTask: true,
			Addr: s.At, HasAddr: true, Line: c.lineOf(s.At),
			Msg: fmt.Sprintf("indirect %s site: %d target(s) inferred via %s", callOrBranch(s.Call), len(s.Targets), s.Table),
		}
		if len(s.Targets) == 0 {
			d.Sev = Warn
			d.Msg = fmt.Sprintf("indirect %s site: no targets inferable (no labels, tables or address-taken functions); every dynamic instance is an unpredictable task switch", callOrBranch(s.Call))
		} else if cttbEntries > 0 && len(s.Targets) > cttbEntries {
			d.Sev = Warn
			d.Msg += fmt.Sprintf("; the site alone has more targets than the %d-entry CTTB, aliasing is guaranteed", cttbEntries)
		}
		out = append(out, d)
	}
	if cttbEntries > 0 && len(f.view.Indirect) > 0 {
		d := Diagnostic{
			Check: CheckIndirectTargets, Sev: Info,
			Msg: fmt.Sprintf("CTTB pressure: %d inferred targets across %d indirect sites share %d entries", totalTargets, len(f.view.Indirect), cttbEntries),
		}
		if totalTargets > cttbEntries {
			d.Sev = Warn
			d.Msg += "; the static population alone exceeds the table, aliasing is guaranteed"
		}
		out = append(out, d)
	}
	return out
}

func callOrBranch(call bool) string {
	if call {
		return "call"
	}
	return "branch"
}

// maxAliasDiagsPerRun bounds tfg-dolc-alias noise on large graphs.
const maxAliasDiagsPerRun = 16

// runTFGDOLCAlias enumerates the statically-known path histories
// reaching each task and checks them through the configured exit DOLC:
// two distinct histories (within the DOLC's visible depth) that fold to
// the same predictor index are guaranteed to fight over one table entry
// — the destructive aliasing of Figure 10, established without running
// a single trace.
func runTFGDOLCAlias(c *Context) []Diagnostic {
	sp := c.Config.spec()
	if c.Graph == nil || sp == nil {
		return nil
	}
	d := sp.ExitDOLC()
	if d == nil {
		return nil
	}
	f := c.dataflowFacts()
	if f.err != nil || f.hist == nil {
		return nil
	}
	if !f.hist.Converged {
		return []Diagnostic{{
			Check: CheckDOLCAlias, Sev: Warn,
			Msg: "history enumeration hit the iteration guard before converging; no verdict",
		}}
	}
	var out []Diagnostic
	enumerated, saturated := 0, 0
	for i, t := range f.view.Tasks {
		fact := f.hist.Facts[i]
		if fact.Top {
			saturated++
			continue
		}
		if len(fact.Hs) == 0 {
			continue
		}
		enumerated++
		collisions := aliasedIndices(*d, t.Start, fact.Hs)
		if len(collisions) == 0 {
			continue
		}
		if len(out) >= maxAliasDiagsPerRun {
			out = append(out, Diagnostic{
				Check: CheckDOLCAlias, Sev: Info,
				Msg: fmt.Sprintf("further alias findings suppressed after %d diagnostics", maxAliasDiagsPerRun),
			})
			break
		}
		first := collisions[0]
		out = append(out, Diagnostic{
			Check: CheckDOLCAlias, Sev: Warn,
			Task: t.Start, HasTask: true, Line: c.lineOf(t.Start),
			Msg: fmt.Sprintf("%d distinct path histories fold to exit-PHT index %d under DOLC %v (%d aliased index(es) total); destructive aliasing is statically guaranteed",
				first.n, first.index, *d, len(collisions)),
		})
	}
	out = append(out, Diagnostic{
		Check: CheckDOLCAlias, Sev: Info,
		Msg: fmt.Sprintf("history enumeration: %d task(s) with enumerable histories, %d saturated (call summaries or >%d paths)",
			enumerated, saturated, dataflow.HistSetCap),
	})
	return out
}

// aliasCollision describes one predictor index claimed by n >= 2
// distinct visible histories.
type aliasCollision struct {
	index uint32
	n     int
}

// aliasedIndices groups the histories (truncated to the DOLC's visible
// depth) by the index they produce for the given task and returns the
// indices claimed by more than one distinct history, ordered by index.
func aliasedIndices(d core.DOLC, current isa.Addr, hs []dataflow.Hist) []aliasCollision {
	byIndex := map[uint32]map[dataflow.Hist]bool{}
	for _, h := range hs {
		p := h.Prefix(d.Depth)
		var ph core.PathHistory
		for i := p.N - 1; i >= 0; i-- {
			ph.Push(p.A[i])
		}
		idx := d.Index(&ph, current)
		if byIndex[idx] == nil {
			byIndex[idx] = map[dataflow.Hist]bool{}
		}
		byIndex[idx][p] = true
	}
	var out []aliasCollision
	for idx, set := range byIndex {
		if len(set) >= 2 {
			out = append(out, aliasCollision{index: idx, n: len(set)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// runTFGDeadExit flags header exit slots that no entry-reachable path
// can take — dead weight in the 2-bit exit predictor's target space and
// usually a sign of a mis-formed region — plus, informationally, live
// tasks from which no halt or return is coreachable (they can only
// diverge).
func runTFGDeadExit(c *Context) []Diagnostic {
	if c.Graph == nil || c.Graph.EntryTask() == nil {
		return nil
	}
	f := c.dataflowFacts()
	if f.err != nil || f.view == nil {
		return nil
	}
	var out []Diagnostic
	for _, de := range f.dead {
		reason := "no instruction edge maps to it"
		if de.Reason == "unreachable-block" {
			reason = "its exit instructions sit in blocks the task entry cannot reach"
		}
		out = append(out, Diagnostic{
			Check: CheckDeadExit, Sev: Warn,
			Task: de.Task, HasTask: true, Line: c.lineOf(de.Task),
			Msg: fmt.Sprintf("exit slot %d is never taken on any entry-reachable path (%s)", de.Exit, reason),
		})
	}
	if f.reach != nil && f.coreach != nil {
		var diverging []string
		for i, t := range f.view.Tasks {
			if f.reach.Facts[i] && !f.coreach.Facts[i] {
				diverging = append(diverging, taskLabel(c, t.Start))
			}
		}
		if len(diverging) > 0 {
			const show = 4
			shown := diverging
			if len(shown) > show {
				shown = shown[:show]
			}
			out = append(out, Diagnostic{
				Check: CheckDeadExit, Sev: Info,
				Msg: fmt.Sprintf("%d reachable task(s) cannot reach any halt or return (%s); paths through them only diverge",
					len(diverging), strings.Join(shown, ", ")),
			})
		}
	}
	return out
}
