package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// specLags are the session lags (dlat<k> reinterpreted) of the accuracy
// tables; specRepairLats the per-rollback repair latencies of the IPC
// table.
var (
	specLags       = []int{1, 2, 4, 8}
	specRepairLats = []int{0, 8, 32}
)

// specUpdatePlan measures what survives of the paper's accuracy results
// when the §3.1 update-timing idealization is dropped entirely:
// predictors train speculatively at prediction time (wrong-path
// outcomes included), every prediction checkpoints the predictor, and a
// mispredict repairs state back through the undo log before the squash
// replay trains the true outcomes. The session lag is how many tasks a
// prediction stays unresolved — the depth of the speculative window
// whose wrong-path training must be undone.
//
// Per workload it has three rows, one per rendered table: the real PATH
// exit predictor across lags, the standard composed task predictor
// across lags (each idealized first), and the timing model's IPC as the
// per-rollback repair latency grows (spec:rlat<k>, idealized first).
func specUpdatePlan(cfg Config) plan {
	cfg = cfg.withDefaults() // the timing budget Table 4 runs the same predictor at
	exitSpecs := []string{PathSpec(Depth7Exit)}
	// The dlat session-lag flag belongs to the exit component, before ras.
	taskSpecs := []string{StdSpec()}
	for _, d := range specLags {
		exitSpecs = append(exitSpecs, fmt.Sprintf("%s:dlat%d:spec", PathSpec(Depth7Exit), d))
		taskSpecs = append(taskSpecs, fmt.Sprintf("composed:%s:dlat%d:ras%d:%s:spec",
			PathSpec(Depth7Exit), d, core.DefaultRASDepth, CTTBSpec(Depth7CTTBSmall)))
	}
	// Lag stays at the session default; rlat0 isolates the accuracy
	// effect from the latency one.
	timingRow := []engine.Run{{Spec: StdSpec(), Mode: engine.ModeTiming, TimingSteps: cfg.TimingSteps}}
	for _, r := range specRepairLats {
		s := StdSpec() + ":spec"
		if r > 0 {
			s += fmt.Sprintf(":rlat%d", r)
		}
		timingRow = append(timingRow, engine.Run{Spec: s, Mode: engine.ModeTiming, TimingSteps: cfg.TimingSteps})
	}
	return byWorkload(workload.Names(), replays(cfg, exitSpecs...), replays(cfg, taskSpecs...), timingRow)
}

// SpecUpdate renders specUpdatePlan's three tables.
func SpecUpdate(w io.Writer, cfg Config) error {
	res, err := specUpdatePlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "idealized"}
	for _, d := range specLags {
		cols = append(cols, "spec lag "+stats.I(d))
	}
	cols = append(cols, "rollbacks/1k (lag 4)")
	exitTbl := stats.New("Speculative update — real PATH exit predictor (depth 7)", cols...)
	exitTbl.Note = "exit miss rate; rollbacks are checkpoint repairs of wrong-path training"
	taskTbl := stats.New("Speculative update — standard composed task predictor", cols...)
	taskTbl.Note = "task miss rate (exit, RAS and CTTB all repaired through checkpoints)"
	tcols := []string{"workload", "idealized"}
	for _, r := range specRepairLats {
		tcols = append(tcols, fmt.Sprintf("spec rlat%d", r))
	}
	tcols = append(tcols, "repair cycles (rlat32)")
	timTbl := stats.New("Speculative update — IPC under repair latency (4 units, 2-way)", tcols...)
	timTbl.Note = "Table 4's standard predictor; each rollback stalls sequencer dispatch rlat cycles"

	perK := func(rollbacks, steps int) string {
		if steps == 0 {
			return stats.F2(0)
		}
		return stats.F2(1000 * float64(rollbacks) / float64(steps))
	}
	// Each workload's rows come in table order; column 3 of an accuracy
	// row is spec lag 4, the last column of the timing row rlat32.
	for i, rs := range res {
		wl := rs[0].Run.Workload
		switch i % 3 {
		case 0:
			lag4 := rs[3].Exit
			exitTbl.AddRow(append(row(rs, exitMiss, wl), perK(lag4.Rollbacks, lag4.Steps))...)
		case 1:
			lag4 := rs[3].Task
			taskTbl.AddRow(append(row(rs, taskMiss, wl), perK(lag4.Rollbacks, lag4.Steps))...)
		case 2:
			repair := rs[len(rs)-1].Timing.RepairCycles
			timTbl.AddRow(append(row(rs, ipc, wl), stats.I(int(repair)))...)
		}
	}
	return writeTables(w, exitTbl, taskTbl, timTbl)
}
