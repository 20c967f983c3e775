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
		tr, err := getTrace(wl, cfg)
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

// Table3Row is one workload's comparison in Table 3.
type Table3Row struct {
	Workload string
	CTTBOnly float64 // task (address) miss rate, CTTB-only 64 KB predictor
	Header   float64 // task miss rate, exit predictor + RAS + small CTTB (16 KB)
}

// Table3Data compares header-less CTTB-only task prediction against the
// standard composed predictor, both at history depth 7 (§5.4 / Table 3).
func Table3Data(cfg Config) ([]Table3Row, error) {
	var runs []engine.Run
	for _, wl := range workload.All() {
		runs = append(runs,
			engine.Run{Workload: wl.Name, Spec: CTTBSpec(Depth7CTTBLarge),
				Mode: engine.ModeTask, MaxSteps: cfg.MaxSteps},
			engine.Run{Workload: wl.Name, Spec: StdSpec(), MaxSteps: cfg.MaxSteps})
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Table3Row
	for i, wl := range workload.All() {
		out = append(out, Table3Row{
			Workload: wl.Name,
			CTTBOnly: results[2*i].Task.MissRate(),
			Header:   results[2*i+1].Task.MissRate(),
		})
	}
	return out, nil
}

// Table3 renders Table3Data.
func Table3(w io.Writer, cfg Config) error {
	data, err := Table3Data(cfg)
	if err != nil {
		return err
	}
	tbl := stats.New("Table 3 — CTTB-only vs exit predictor with RAS & CTTB (depth 7)",
		"workload", "CTTB-only (64KB)", "exit+RAS+CTTB (16KB)", "CTTB-only worse by")
	tbl.Note = "overall task (next-address) miss rates"
	for _, r := range data {
		worse := "-"
		if r.Header > 0 {
			worse = stats.Pct(r.CTTBOnly/r.Header - 1)
		}
		tbl.AddRow(r.Workload, stats.Pct(r.CTTBOnly), stats.Pct(r.Header), worse)
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

// Table4Row is one workload's IPC row.
type Table4Row struct {
	Workload string
	IPC      map[string]float64
	MissRate map[string]float64
}

// Table4Data runs the timing simulator for each workload × predictor.
func Table4Data(cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	preds := Table4Specs()
	var runs []engine.Run
	for _, wl := range workload.All() {
		for _, p := range preds {
			runs = append(runs, engine.Run{Workload: wl.Name, Spec: p.Spec, Label: p.Name,
				Mode: engine.ModeTiming, TimingSteps: cfg.TimingSteps})
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Table4Row
	i := 0
	for _, wl := range workload.All() {
		row := Table4Row{Workload: wl.Name,
			IPC: map[string]float64{}, MissRate: map[string]float64{}}
		for _, p := range preds {
			row.IPC[p.Name] = results[i].Timing.IPC()
			row.MissRate[p.Name] = results[i].Timing.TaskMissRate()
			i++
		}
		out = append(out, row)
	}
	return out, nil
}

// Table4 renders Table4Data.
func Table4(w io.Writer, cfg Config) error {
	data, err := Table4Data(cfg)
	if err != nil {
		return err
	}
	preds := Table4Specs()
	cols := []string{"workload"}
	for _, p := range preds {
		cols = append(cols, p.Name)
	}
	tbl := stats.New("Table 4 — IPC from the timing simulator (4 units, 2-way)", cols...)
	miss := stats.New("Table 4 supplement — task miss rates observed by the timing run", cols...)
	for _, r := range data {
		cells := []string{r.Workload}
		mcells := []string{r.Workload}
		for _, p := range preds {
			cells = append(cells, stats.F2(r.IPC[p.Name]))
			mcells = append(mcells, stats.Pct(r.MissRate[p.Name]))
		}
		tbl.AddRow(cells...)
		miss.AddRow(mcells...)
	}
	return writeTables(w, tbl, miss)
}
