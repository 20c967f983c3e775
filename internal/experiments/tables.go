package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// Table2 reports the benchmark task statistics of the paper's Table 2:
// static tasks, dynamic tasks executed, and distinct tasks seen.
func Table2(w io.Writer, cfg Config) error {
	tbl := stats.New("Table 2 — benchmarks and task information",
		"workload", "analog", "static tasks", "dynamic tasks", "distinct seen", "instr/task")
	for _, wl := range workload.All() {
		g, err := wl.Graph()
		if err != nil {
			return err
		}
		tr, err := workload.CachedColumnar(wl.Name, cfg.MaxSteps)
		if err != nil {
			return err
		}
		instrPerTask := "-"
		if cfg.MaxSteps == 0 {
			_, st, err := wl.Columnar()
			if err != nil {
				return err
			}
			instrPerTask = stats.F2(st.InstrsPerTask())
		}
		tbl.AddRow(wl.Name, wl.Analog, stats.I(g.NumTasks()), stats.I(tr.Len()),
			stats.I(tr.DistinctTasks()), instrPerTask)
	}
	return writeTables(w, tbl)
}

// table3Plan compares header-less CTTB-only task prediction (64 KB)
// against the standard composed predictor (exit predictor + RAS + small
// CTTB, 16 KB), both at history depth 7 (§5.4 / Table 3).
func table3Plan(cfg Config) plan {
	return byWorkload(workload.Names(), []engine.Run{
		{Spec: CTTBSpec(Depth7CTTBLarge), Mode: engine.ModeTask, MaxSteps: cfg.MaxSteps},
		{Spec: StdSpec(), MaxSteps: cfg.MaxSteps},
	})
}

// Table3 renders table3Plan.
func Table3(w io.Writer, cfg Config) error {
	res, err := table3Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	tbl := stats.New("Table 3 — CTTB-only vs exit predictor with RAS & CTTB (depth 7)",
		"workload", "CTTB-only (64KB)", "exit+RAS+CTTB (16KB)", "CTTB-only worse by")
	tbl.Note = "overall task (next-address) miss rates"
	for _, rs := range res {
		worse := "-"
		if header := rs[1].Task.MissRate(); header > 0 {
			worse = stats.Pct(rs[0].Task.MissRate()/header - 1)
		}
		tbl.AddRow(append(row(rs, taskMiss, rs[0].Run.Workload), worse)...)
	}
	return writeTables(w, tbl)
}

// Table4Spec is one of the five predictor configurations of Table 4:
// a display name and the engine spec that builds it. "perfect" builds to
// a nil predictor — the timing simulator treats nil as always-correct.
type Table4Spec struct {
	Name string
	Spec string
}

// Table4Specs lists the five predictor configurations of Table 4.
func Table4Specs() []Table4Spec {
	tail := fmt.Sprintf(":ras%d:%s", core.DefaultRASDepth, CTTBSpec(Depth7CTTBSmall))
	return []Table4Spec{
		// Simple is a task-address-indexed PHT: a depth-0 DOLC.
		{"Simple", "composed:" + PathSpec(core.MustDOLC(0, 0, 0, 14, 1)) + tail},
		{"GLOBAL", "composed:global:d7-c14-i14:leh2" + tail},
		{"PER", "composed:per:d7-h12-t14-i14:leh2" + tail},
		{"PATH", "composed:" + PathSpec(Depth7Exit) + tail},
		{"Perfect", "perfect"},
	}
}

// table4Plan runs the timing simulator for each workload × Table 4
// predictor, each run labelled with its predictor's display name.
func table4Plan(cfg Config) plan {
	cfg = cfg.withDefaults()
	var preds []engine.Run
	for _, p := range Table4Specs() {
		preds = append(preds, engine.Run{Spec: p.Spec, Label: p.Name,
			Mode: engine.ModeTiming, TimingSteps: cfg.TimingSteps})
	}
	return byWorkload(workload.Names(), preds)
}

// Table4 renders table4Plan.
func Table4(w io.Writer, cfg Config) error {
	res, err := table4Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for _, p := range Table4Specs() {
		cols = append(cols, p.Name)
	}
	tbl := stats.New("Table 4 — IPC from the timing simulator (4 units, 2-way)", cols...)
	miss := stats.New("Table 4 supplement — task miss rates observed by the timing run", cols...)
	timingMiss := func(r *engine.Result) string { return stats.Pct(r.Timing.TaskMissRate()) }
	for _, rs := range res {
		tbl.AddRow(row(rs, ipc, rs[0].Run.Workload)...)
		miss.AddRow(row(rs, timingMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl, miss)
}
