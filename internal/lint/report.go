// The static predictability report: per-task dataflow facts rendered as
// a stable JSON document (mlint -report). Where the diagnostics answer
// "is anything wrong", the report surfaces the raw fixed-point facts so
// they can be correlated with dynamic measurements — the static half of
// the static-vs-dynamic predictability experiment.
package lint

import (
	"encoding/json"
	"fmt"
	"io"

	"multiscalar/internal/core"
)

// ReportVersion is bumped on incompatible report schema changes.
const ReportVersion = 1

// TaskFacts is the per-task row of the static predictability report.
type TaskFacts struct {
	// Task is the task start address; Name its diagnostic label.
	Task uint32 `json:"task"`
	Name string `json:"name,omitempty"`
	// Exits counts header exit slots.
	Exits int `json:"exits"`
	// DepthLo/DepthHi bound the call-stack depth at the task entry
	// (-1/-1 when the task is unreached by the depth analysis).
	DepthLo int `json:"depth_lo"`
	DepthHi int `json:"depth_hi"`
	// DepthUnbounded marks saturation at the analysis cap (recursion or
	// very deep nesting).
	DepthUnbounded bool `json:"depth_unbounded,omitempty"`
	// Recursive marks membership in a call cycle.
	Recursive bool `json:"recursive,omitempty"`
	// Reachable/Coreachable are the two liveness directions.
	Reachable   bool `json:"reachable"`
	Coreachable bool `json:"coreachable"`
	// Histories counts the statically-enumerated path histories reaching
	// the task (-1 when the set saturated to Top).
	Histories int `json:"histories"`
	// AliasedIndices counts predictor indices claimed by >= 2 distinct
	// visible histories under the configured exit DOLC.
	AliasedIndices int `json:"aliased_indices,omitempty"`
	// DeadExits lists header slots never taken on an entry-reachable
	// path.
	DeadExits []int `json:"dead_exits,omitempty"`
}

// SiteFacts is the per-indirect-site row of the report.
type SiteFacts struct {
	Task    uint32 `json:"task"`
	At      uint32 `json:"at"`
	Exit    int    `json:"exit"`
	Call    bool   `json:"call,omitempty"`
	Targets int    `json:"targets"`
	Via     string `json:"via"`
}

// ReportSummary aggregates one target's facts.
type ReportSummary struct {
	Tasks          int    `json:"tasks"`
	Edges          int    `json:"edges"`
	MaxCallDepth   int    `json:"max_call_depth"`
	RecursiveTasks int    `json:"recursive_tasks"`
	RASDepth       int    `json:"ras_depth,omitempty"`
	RASVerdict     string `json:"ras_verdict,omitempty"`
	IndirectSites  int    `json:"indirect_sites"`
	DeadExitSlots  int    `json:"dead_exit_slots"`
	AliasedTasks   int    `json:"aliased_tasks"`
	SaturatedTasks int    `json:"saturated_tasks"`
}

// ReportTarget is one analyzed subject of the report document.
type ReportTarget struct {
	Name     string        `json:"name"`
	Summary  ReportSummary `json:"summary"`
	Tasks    []TaskFacts   `json:"tasks"`
	Indirect []SiteFacts   `json:"indirect_sites"`
}

// BuildReportTarget solves the dataflow analyses over the context's
// graph and assembles the per-task facts, tasks in ascending start
// order. The result is deterministic: same graph and config, same
// bytes.
func BuildReportTarget(name string, c *Context) (ReportTarget, error) {
	rt := ReportTarget{Name: name, Tasks: []TaskFacts{}, Indirect: []SiteFacts{}}
	if c.Graph == nil {
		return rt, fmt.Errorf("lint: report target %q has no task flow graph", name)
	}
	f := c.dataflowFacts()
	if f.err != nil {
		return rt, f.err
	}
	recursive := f.depth.RecursiveSet()
	deadByTask := map[uint32][]int{}
	for _, de := range f.dead {
		deadByTask[uint32(de.Task)] = append(deadByTask[uint32(de.Task)], de.Exit)
	}
	sp := c.Config.spec()
	var exitDOLC *core.DOLC
	if sp != nil {
		exitDOLC = sp.ExitDOLC()
	}
	for i, t := range f.view.Tasks {
		tf := TaskFacts{
			Task:        uint32(t.Start),
			Name:        t.Name,
			Exits:       len(t.Exits),
			DepthLo:     -1,
			DepthHi:     -1,
			Reachable:   f.reach.Facts[i],
			Coreachable: f.coreach.Facts[i],
			Recursive:   recursive[t.Start],
			DeadExits:   deadByTask[uint32(t.Start)],
		}
		if df := f.depth.Result.Facts[i]; df.Set {
			tf.DepthLo, tf.DepthHi = df.Lo, df.Hi
			tf.DepthUnbounded = df.Unbounded()
		}
		hf := f.hist.Facts[i]
		if hf.Top {
			tf.Histories = -1
			rt.Summary.SaturatedTasks++
		} else {
			tf.Histories = len(hf.Hs)
			if exitDOLC != nil && len(hf.Hs) > 1 {
				tf.AliasedIndices = len(aliasedIndices(*exitDOLC, t.Start, hf.Hs))
			}
		}
		if tf.AliasedIndices > 0 {
			rt.Summary.AliasedTasks++
		}
		rt.Summary.DeadExitSlots += len(tf.DeadExits)
		rt.Tasks = append(rt.Tasks, tf)
	}
	for _, s := range f.view.Indirect {
		rt.Indirect = append(rt.Indirect, SiteFacts{
			Task: uint32(s.Task), At: uint32(s.At), Exit: s.Exit,
			Call: s.Call, Targets: len(s.Targets), Via: s.Table,
		})
	}
	rt.Summary.Tasks = len(rt.Tasks)
	rt.Summary.Edges = f.view.NumEdges()
	rt.Summary.MaxCallDepth = f.depth.MaxHi
	rt.Summary.RecursiveTasks = len(f.depth.Recursive)
	rt.Summary.IndirectSites = len(rt.Indirect)
	if sp != nil {
		rt.Summary.RASDepth = sp.RASDepth()
		rt.Summary.RASVerdict = rasVerdict(f.depth, rt.Summary.RASDepth)
	}
	return rt, nil
}

// reportDoc is the mlint -report document schema.
type reportDoc struct {
	Version int            `json:"version"`
	Targets []ReportTarget `json:"targets"`
}

// WriteReport renders the static predictability report as indented
// JSON. Field order is fixed by the struct tags and all slices are in
// deterministic (address) order, so the bytes are stable across runs.
func WriteReport(w io.Writer, targets []ReportTarget) error {
	if targets == nil {
		targets = []ReportTarget{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reportDoc{Version: ReportVersion, Targets: targets})
}
