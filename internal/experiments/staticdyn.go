// The static-vs-dynamic predictability study: does the dataflow layer's
// static report (mlint -report) predict where the real predictor
// actually mispredicts? For each workload the study solves the static
// analyses over the TFG, replays the standard composed predictor over
// the trace with per-task accounting, and correlates the two: miss
// rates grouped by static classification, and the static RAS verdict
// checked against the dynamic overflow counter.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/lint"
	"multiscalar/internal/stats"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// StaticDynGroup is one static classification's aggregated dynamic
// outcome within a workload.
type StaticDynGroup struct {
	Tasks  int // distinct tasks in the group
	Steps  int // dynamic prediction steps through them
	Misses int // task-address mispredictions
}

// Rate returns the group's weighted task miss rate in [0,1].
func (g StaticDynGroup) Rate() float64 {
	if g.Steps == 0 {
		return 0
	}
	return float64(g.Misses) / float64(g.Steps)
}

// StaticDynTask is one per-task correlation row: the static facts next
// to the measured miss rate.
type StaticDynTask struct {
	Task      uint32
	Name      string
	Histories int // statically enumerated path histories (-1 = saturated)
	Aliased   int // predictor indices claimed by >= 2 distinct histories
	DepthHi   int // call-depth interval upper bound
	Steps     int
	Misses    int
}

// StaticDynRow is one workload's full correlation.
type StaticDynRow struct {
	Workload string
	// Static side (from the dataflow report under the standard spec).
	Verdict        string // static RAS verdict
	MaxCallDepth   int
	RecursiveTasks int
	// Dynamic side (standard composed predictor over the trace).
	RASOverflows int
	Overall      StaticDynGroup
	// Groups split the dynamic steps by static classification. Aliased:
	// tasks with at least one statically-guaranteed index collision.
	// Saturated: tasks whose history enumeration hit the set cap (deep
	// or cyclic history structure). Clean: everything else.
	Aliased   StaticDynGroup
	Saturated StaticDynGroup
	Clean     StaticDynGroup
	// Top lists the most-mispredicted tasks with their static facts.
	Top []StaticDynTask
}

// RASAgrees reports whether the static verdict is consistent with the
// measured overflow counter. Only "fits" makes a falsifiable claim
// (zero overflows); the other verdicts permit any counter value.
func (r StaticDynRow) RASAgrees() bool {
	return r.Verdict != lint.RASFits || r.RASOverflows == 0
}

// staticDynTopN bounds the per-workload detail table.
const staticDynTopN = 5

// StaticDynData computes the correlation for every workload.
func StaticDynData(cfg Config) ([]StaticDynRow, error) {
	lcfg := &lint.PredictorConfig{PredSpec: StdSpec()}
	var out []StaticDynRow
	for _, wl := range workload.All() {
		g, err := wl.Graph()
		if err != nil {
			return nil, err
		}
		rt, err := lint.BuildReportTarget(wl.Name, lint.NewContext(g.Prog, g, lcfg))
		if err != nil {
			return nil, err
		}
		tr, err := getTrace(wl, cfg)
		if err != nil {
			return nil, err
		}
		row, err := correlate(wl.Name, rt, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// perTaskCounts replays the standard composed predictor over the
// columnar trace, accounting misses per static task, and returns the
// predictor for post-run state inspection (the RAS overflow counter).
func perTaskCounts(c *trace.Columnar) (map[isa.Addr]*StaticDynGroup, core.TaskPredictor, error) {
	sp, err := engine.Parse(StdSpec())
	if err != nil {
		return nil, nil, err
	}
	p, err := sp.BuildTask()
	if err != nil {
		return nil, nil, err
	}
	p.Reset()
	counts := map[isa.Addr]*StaticDynGroup{}
	at := func(a isa.Addr) *StaticDynGroup {
		g := counts[a]
		if g == nil {
			g = &StaticDynGroup{}
			counts[a] = g
		}
		return g
	}
	cur := c.Blocks()
	// A cursor over resident columns never returns an error.
	for b, _ := cur.NextBlock(); b != nil; b, _ = cur.NextBlock() {
		entries := b.Dict.Entries
		for i := 0; i < b.N; i++ {
			e := b.Exits[i]
			if e == trace.HaltExit {
				continue
			}
			ent := &entries[b.TaskIdx[i]]
			target := entries[b.TargetIdx[i]].Addr
			pred := p.Predict(ent.Task)
			cnt := at(ent.Addr)
			cnt.Steps++
			if pred.Target != target {
				cnt.Misses++
			}
			p.Update(ent.Task, core.Outcome{Exit: int(e), Target: target})
		}
	}
	return counts, p, nil
}

// correlate joins one workload's static report with its measured
// per-task miss counts.
func correlate(name string, rt lint.ReportTarget, c *trace.Columnar) (StaticDynRow, error) {
	counts, p, err := perTaskCounts(c)
	if err != nil {
		return StaticDynRow{}, err
	}
	row := StaticDynRow{
		Workload:       name,
		Verdict:        rt.Summary.RASVerdict,
		MaxCallDepth:   rt.Summary.MaxCallDepth,
		RecursiveTasks: rt.Summary.RecursiveTasks,
	}
	if hp, ok := p.(*core.HeaderPredictor); ok && hp.RAS() != nil {
		row.RASOverflows = hp.RAS().Overflows()
	}
	for _, tf := range rt.Tasks {
		c := counts[isa.Addr(tf.Task)]
		if c == nil {
			c = &StaticDynGroup{}
		}
		grp := &row.Clean
		switch {
		case tf.Histories < 0:
			grp = &row.Saturated
		case tf.AliasedIndices > 0:
			grp = &row.Aliased
		}
		grp.Tasks++
		grp.Steps += c.Steps
		grp.Misses += c.Misses
		row.Overall.Tasks++
		row.Overall.Steps += c.Steps
		row.Overall.Misses += c.Misses
		if c.Misses > 0 {
			row.Top = append(row.Top, StaticDynTask{
				Task: tf.Task, Name: tf.Name,
				Histories: tf.Histories, Aliased: tf.AliasedIndices,
				DepthHi: tf.DepthHi, Steps: c.Steps, Misses: c.Misses,
			})
		}
	}
	sort.Slice(row.Top, func(i, j int) bool {
		a, b := row.Top[i], row.Top[j]
		if a.Misses != b.Misses {
			return a.Misses > b.Misses
		}
		return a.Task < b.Task
	})
	if len(row.Top) > staticDynTopN {
		row.Top = row.Top[:staticDynTopN]
	}
	return row, nil
}

// staticLabel renders a task's static classification for the detail
// table.
func staticLabel(t StaticDynTask) string {
	switch {
	case t.Histories < 0:
		return "saturated"
	case t.Aliased > 0:
		return fmt.Sprintf("aliased(%d)", t.Aliased)
	default:
		return fmt.Sprintf("%d hist", t.Histories)
	}
}

// StaticPred renders the static-vs-dynamic predictability study.
func StaticPred(w io.Writer, cfg Config) error {
	data, err := StaticDynData(cfg)
	if err != nil {
		return err
	}
	sum := stats.New("Static vs dynamic predictability — miss rate by static class (std predictor)",
		"workload", "tasks", "aliased miss", "saturated miss", "clean miss", "overall miss")
	sum.Note = "aliased: tasks with statically-guaranteed exit-index collisions; saturated: history enumeration hit the cap"
	ras := stats.New("Static RAS verdict vs dynamic overflow counter",
		"workload", "static verdict", "max static depth", "recursive tasks", "dyn overflows", "agree")
	ras.Note = `"fits" claims zero dynamic overflows; "may-overflow"/"unbounded" make no falsifiable claim`
	for _, r := range data {
		grp := func(g StaticDynGroup) string {
			if g.Steps == 0 {
				return "-"
			}
			return stats.Pct(g.Rate())
		}
		sum.AddRow(r.Workload, stats.I(r.Overall.Tasks),
			grp(r.Aliased), grp(r.Saturated), grp(r.Clean), grp(r.Overall))
		agree := "-"
		if r.Verdict == lint.RASFits {
			agree = "yes"
			if !r.RASAgrees() {
				agree = "NO"
			}
		}
		ras.AddRow(r.Workload, r.Verdict, stats.I(r.MaxCallDepth),
			stats.I(r.RecursiveTasks), stats.I(r.RASOverflows), agree)
	}
	if err := writeTables(w, sum, ras); err != nil {
		return err
	}
	for _, r := range data {
		if len(r.Top) == 0 {
			continue
		}
		tbl := stats.New(fmt.Sprintf("Most-mispredicted tasks — %s", r.Workload),
			"task", "static class", "depth hi", "steps", "misses", "miss rate")
		for _, t := range r.Top {
			label := fmt.Sprintf("@%d", t.Task)
			if t.Name != "" {
				label = fmt.Sprintf("%s@%d", t.Name, t.Task)
			}
			tbl.AddRow(label, staticLabel(t), stats.I(t.DepthHi), stats.I(t.Steps),
				stats.I(t.Misses), stats.Pct(float64(t.Misses)/float64(t.Steps)))
		}
		if err := writeTables(w, tbl); err != nil {
			return err
		}
	}
	return nil
}
