package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// SpecUpdate measures what survives of the paper's accuracy results when
// the §3.1 update-timing idealization is dropped entirely: predictors
// train speculatively at prediction time (wrong-path outcomes included),
// every prediction checkpoints the predictor, and a mispredict repairs
// state back through the undo log before the squash replay trains the
// true outcomes. The session lag (dlat<k> reinterpreted) is how many
// tasks a prediction stays unresolved — the depth of the speculative
// window whose wrong-path training must be undone.
//
// Three tables: the real PATH exit predictor across lags, the standard
// composed task predictor across lags, and the timing model's IPC as the
// per-rollback repair latency grows (spec:rlat<k>).
func SpecUpdate(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults() // the timing budget Table 4 runs the same predictor at
	lags := []int{1, 2, 4, 8}

	// Exit prediction: idealized vs speculative update at each lag.
	specs := []string{PathSpec(Depth7Exit)}
	for _, d := range lags {
		specs = append(specs, fmt.Sprintf("%s:dlat%d:spec", PathSpec(Depth7Exit), d))
	}
	var runs []engine.Run
	for _, wl := range workload.All() {
		for _, s := range specs {
			runs = append(runs, engine.Run{Workload: wl.Name, Spec: s, MaxSteps: cfg.MaxSteps})
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return err
	}
	cols := []string{"workload", "idealized"}
	for _, d := range lags {
		cols = append(cols, "spec lag "+stats.I(d))
	}
	cols = append(cols, "rollbacks/1k (lag 4)")
	exitTbl := stats.New("Speculative update — real PATH exit predictor (depth 7)", cols...)
	exitTbl.Note = "exit miss rate; rollbacks are checkpoint repairs of wrong-path training"
	i := 0
	for _, wl := range workload.All() {
		cells := []string{wl.Name}
		var perK float64
		for j := range specs {
			r := results[i]
			cells = append(cells, stats.Pct(r.Exit.MissRate()))
			if j == 3 && r.Exit.Steps > 0 { // lag 4
				perK = 1000 * float64(r.Exit.Rollbacks) / float64(r.Exit.Steps)
			}
			i++
		}
		exitTbl.AddRow(append(cells, stats.F2(perK))...)
	}

	// Composed task prediction (Table 3's standard configuration; the
	// dlat session-lag flag belongs to the exit component, before ras).
	taskSpecs := []string{StdSpec()}
	for _, d := range lags {
		taskSpecs = append(taskSpecs, fmt.Sprintf("composed:%s:dlat%d:ras%d:%s:spec",
			PathSpec(Depth7Exit), d, core.DefaultRASDepth, CTTBSpec(Depth7CTTBSmall)))
	}
	runs = runs[:0]
	for _, wl := range workload.All() {
		for _, s := range taskSpecs {
			runs = append(runs, engine.Run{Workload: wl.Name, Spec: s, MaxSteps: cfg.MaxSteps})
		}
	}
	results, err = execute(cfg, runs)
	if err != nil {
		return err
	}
	taskTbl := stats.New("Speculative update — standard composed task predictor", cols...)
	taskTbl.Note = "task miss rate (exit, RAS and CTTB all repaired through checkpoints)"
	i = 0
	for _, wl := range workload.All() {
		cells := []string{wl.Name}
		var perK float64
		for j := range taskSpecs {
			r := results[i]
			cells = append(cells, stats.Pct(r.Task.MissRate()))
			if j == 3 && r.Task.Steps > 0 {
				perK = 1000 * float64(r.Task.Rollbacks) / float64(r.Task.Steps)
			}
			i++
		}
		taskTbl.AddRow(append(cells, stats.F2(perK))...)
	}

	// Timing: IPC as the repair drain grows (lag fixed at the session
	// default; rlat0 isolates the accuracy effect from the latency one).
	rlats := []int{0, 8, 32}
	timingSpecs := []string{StdSpec()}
	for _, r := range rlats {
		s := StdSpec() + ":spec"
		if r > 0 {
			s += fmt.Sprintf(":rlat%d", r)
		}
		timingSpecs = append(timingSpecs, s)
	}
	runs = runs[:0]
	for _, wl := range workload.All() {
		for _, s := range timingSpecs {
			runs = append(runs, engine.Run{Workload: wl.Name, Spec: s,
				Mode: engine.ModeTiming, TimingSteps: cfg.TimingSteps})
		}
	}
	results, err = execute(cfg, runs)
	if err != nil {
		return err
	}
	tcols := []string{"workload", "idealized"}
	for _, r := range rlats {
		tcols = append(tcols, fmt.Sprintf("spec rlat%d", r))
	}
	tcols = append(tcols, "repair cycles (rlat32)")
	timTbl := stats.New("Speculative update — IPC under repair latency (4 units, 2-way)", tcols...)
	timTbl.Note = "Table 4's standard predictor; each rollback stalls sequencer dispatch rlat cycles"
	i = 0
	for _, wl := range workload.All() {
		cells := []string{wl.Name}
		var repair uint64
		for j := range timingSpecs {
			r := results[i]
			cells = append(cells, stats.F2(r.Timing.IPC()))
			if j == len(timingSpecs)-1 {
				repair = r.Timing.RepairCycles
			}
			i++
		}
		timTbl.AddRow(append(cells, stats.I(int(repair)))...)
	}
	return writeTables(w, exitTbl, taskTbl, timTbl)
}
