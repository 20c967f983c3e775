package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// The ablations quantify the design choices DESIGN.md calls out beyond
// the paper's own figures.

// foldingPoints are the XOR folding ablation's configurations. All use
// depth 6. The folded family keeps 42 intermediate bits and folds to
// 21/14 bits; the unfolded family truncates address bits to reach the
// same widths directly.
var foldingPoints = []struct {
	label string
	dolc  core.DOLC
}{
	{"folded 42->21 (F=2)", core.MustDOLC(6, 5, 8, 9, 2)},
	{"folded 42->14 (F=3)", core.MustDOLC(6, 5, 8, 9, 3)},
	{"unfolded 21 (F=1)", core.MustDOLC(6, 2, 5, 6, 1)},
	{"unfolded 14 (F=1)", core.MustDOLC(6, 1, 4, 5, 1)},
}

// foldingPlan measures §6.1's folding heuristic directly: the same
// depth-6 path information folded into different index widths (more
// folding = smaller table but more information loss), against an
// unfolded short index of the same final width.
func foldingPlan(cfg Config) plan {
	var specs []string
	for _, p := range foldingPoints {
		specs = append(specs, PathSpec(p.dolc))
	}
	return byWorkload(workload.Names(), replays(cfg, specs...))
}

// AblationFolding renders foldingPlan.
func AblationFolding(w io.Writer, cfg Config) error {
	res, err := foldingPlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for _, p := range foldingPoints {
		cols = append(cols, fmt.Sprintf("%s %v", p.label, p.dolc))
	}
	tbl := stats.New("Ablation — XOR folding (depth-6 path)", cols...)
	tbl.Note = "exit miss rate; folding a long intermediate index beats an unfolded short one"
	for _, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}

// singleExitPlan measures the §6.1 single-exit-task optimization: with
// it, single-exit tasks neither read nor update the PHT, reducing
// aliasing pressure on the fixed-size table.
func singleExitPlan(cfg Config) plan {
	return byWorkload(workload.Names(), replays(cfg,
		PathSpec(Depth7Exit),          // optimization on (the grammar's default)
		PathSpec(Depth7Exit)+":nosse", // optimization off
		PathSpec(Depth7Exit)+":ssh"))  // also keep single-exit tasks out of the history
}

// AblationSingleExit renders singleExitPlan.
func AblationSingleExit(w io.Writer, cfg Config) error {
	res, err := singleExitPlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	tbl := stats.New("Ablation — single-exit-task optimization (depth 7, 8 KB PHT)",
		"workload", "with optimization", "without", "also skip history push")
	tbl.Note = "exit miss rate"
	for _, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}

// rasDepths is the return address stack depth sweep.
var rasDepths = []int{1, 2, 4, 8, 16, 32}

// rasPlan sweeps return address stack depth, confirming the cited result
// that a reasonably deep RAS is nearly perfect for returns.
func rasPlan(cfg Config) plan {
	var specs []string
	for _, d := range rasDepths {
		specs = append(specs, fmt.Sprintf("composed:%s:ras%d:%s", PathSpec(Depth7Exit), d, CTTBSpec(Depth7CTTBSmall)))
	}
	return byWorkload(workload.Names(), replays(cfg, specs...))
}

// AblationRAS renders rasPlan.
func AblationRAS(w io.Writer, cfg Config) error {
	res, err := rasPlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for _, d := range rasDepths {
		cols = append(cols, fmt.Sprintf("ras=%d", d))
	}
	tbl := stats.New("Ablation — RAS depth (return-exit address miss rate)", cols...)
	returnMiss := func(r *engine.Result) string {
		km := r.Task.ByKind[isa.KindReturn]
		rate := 0.0
		if km.Steps > 0 {
			rate = float64(km.Misses) / float64(km.Steps)
		}
		return stats.Pct(rate)
	}
	for _, rs := range res {
		tbl.AddRow(row(rs, returnMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}

// realHistoriesPlan measures real (table-backed) GLOBAL and PER
// implementations against the real PATH predictor — the comparison the
// paper skipped ("implementations of the path-based history predictors
// tend to do better than the ideal implementations of the other two
// schemes").
func realHistoriesPlan(cfg Config) plan {
	return byWorkload(workload.Names(), replays(cfg,
		"global:d7-c14-i14:leh2",
		"per:d7-h12-t14-i14:leh2",
		PathSpec(Depth7Exit),
		"iglobal:d7:leh2",
		"iper:d7:leh2"))
}

// AblationRealHistories renders realHistoriesPlan.
func AblationRealHistories(w io.Writer, cfg Config) error {
	res, err := realHistoriesPlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	tbl := stats.New("Ablation — real GLOBAL/PER vs real PATH (depth 7, 16K-entry tables)",
		"workload", "GLOBAL-real", "PER-real", "PATH-real", "GLOBAL-ideal", "PER-ideal")
	tbl.Note = "exit miss rate; the paper's claim holds when PATH-real beats the other schemes' ideals"
	for _, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}
