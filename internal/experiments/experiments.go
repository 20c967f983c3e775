// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a named runner that replays the shared
// workload traces through the relevant predictor configurations and
// renders the same rows/series the paper reports. See EXPERIMENTS.md for
// the measured results and their comparison with the paper.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// Config tunes experiment execution.
type Config struct {
	// MaxSteps truncates workload traces (0 = full traces, the default
	// for reported results; tests use small values).
	MaxSteps int
	// TimingSteps bounds the timing simulation of Table 4 (default
	// 400000 dynamic tasks per run).
	TimingSteps int
	// Workers is the evaluation-grid worker pool size (0 = GOMAXPROCS).
	// Output is byte-identical at any worker count; only wall-clock
	// changes.
	Workers int

	// pool runs every grid of a RunResilient batch, so a cell that an
	// earlier experiment ran is a memo hit; nil opens one per grid. A
	// grid pool has the default memo cap and no queue: grids never shed.
	pool *engine.Pool
}

func (c Config) withDefaults() Config {
	if c.TimingSteps == 0 {
		c.TimingSteps = 400000
	}
	return c
}

// Runner executes one experiment, writing its table(s) to w.
type Runner struct {
	Name  string
	Brief string
	Run   func(w io.Writer, cfg Config) error
}

// All lists the experiment runners in paper order.
func All() []Runner {
	return []Runner{
		{"table2", "benchmark task statistics (static/dynamic/distinct tasks)", Table2},
		{"fig3", "number of exits per task, static and dynamic", Figure3},
		{"fig4", "types of exit instructions, static and dynamic", Figure4},
		{"fig6", "prediction automata comparison (ideal path history)", Figure6},
		{"fig7", "ideal GLOBAL vs PER vs PATH across history depths", Figure7},
		{"fig8", "ideal CTTB miss rate vs history depth (indirect exits)", Figure8},
		{"fig10", "real vs ideal path-based exit prediction across DOLC configs", Figure10},
		{"fig11", "predictor states touched, ideal vs real", Figure11},
		{"fig12", "real vs ideal CTTB across DOLC configs", Figure12},
		{"table3", "CTTB-only vs exit predictor with RAS and CTTB", Table3},
		{"table4", "IPC from the timing simulator across predictors", Table4},
		{"intratask", "intra-task bimodal prediction: complete vs per-unit history (§2.2)", IntraTask},
		{"ablation-folding", "XOR folding ablation (same history, varying F)", AblationFolding},
		{"ablation-singleexit", "single-exit-task optimization ablation", AblationSingleExit},
		{"ablation-ras", "return address stack depth sweep", AblationRAS},
		{"ablation-real-histories", "real GLOBAL and PER implementations vs real PATH", AblationRealHistories},
		{"ablation-updatedelay", "predictor update latency ablation (§3.1 Update Timing)", AblationUpdateDelay},
		{"specupdate", "speculative update with checkpoint repair: accuracy, rollbacks and IPC", SpecUpdate},
		{"fault-sweep", "graceful degradation: task miss rate vs predictor-state fault rate", FaultSweep},
		{"staticpred", "static dataflow warnings vs measured per-task mispredict rates", StaticPred},
	}
}

// ByName finds a runner.
func ByName(name string) (Runner, error) {
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
	}
	names := make([]string, 0)
	for _, r := range All() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}

// ExitDOLC14 is the DOLC sweep used for the real exit predictor studies:
// one configuration per history depth 0..7, all folding to a 14-bit
// index (an 8 KB PHT at 4 bits per LEH-2 entry), following the paper's
// Figure 10 points (with consistent substitutes where the published
// labels are ambiguous; the constraint (D-1)·O+L+C = 14·F always holds).
var ExitDOLC14 = []core.DOLC{
	core.MustDOLC(0, 0, 0, 14, 1),
	core.MustDOLC(1, 0, 7, 7, 1),
	core.MustDOLC(2, 4, 5, 5, 1),
	core.MustDOLC(3, 6, 8, 8, 2),
	core.MustDOLC(4, 5, 6, 7, 2),
	core.MustDOLC(5, 4, 6, 6, 2),
	core.MustDOLC(6, 5, 8, 9, 3),
	core.MustDOLC(7, 5, 6, 6, 3),
}

// CTTBDOLC11 is the DOLC sweep for the real CTTB studies: one
// configuration per depth 0..7, all folding to an 11-bit index (an 8 KB
// buffer at 4 bytes per entry), following the paper's Figure 12 points.
var CTTBDOLC11 = []core.DOLC{
	core.MustDOLC(0, 0, 0, 11, 1),
	core.MustDOLC(1, 0, 5, 6, 1),
	core.MustDOLC(2, 3, 3, 5, 1),
	core.MustDOLC(3, 5, 6, 6, 2),
	core.MustDOLC(4, 4, 5, 5, 2),
	core.MustDOLC(5, 5, 6, 7, 3),
	core.MustDOLC(6, 4, 6, 7, 3),
	core.MustDOLC(7, 4, 4, 5, 3),
}

// Depth7Exit is the flagship real exit predictor configuration (depth 7,
// 14-bit index).
var Depth7Exit = core.MustDOLC(7, 5, 6, 6, 3)

// Depth7CTTBSmall is the small CTTB used beside the exit predictor in
// Table 3 (11-bit index).
var Depth7CTTBSmall = core.MustDOLC(7, 4, 4, 5, 3)

// Depth7CTTBLarge is the CTTB-only configuration of Table 3 (14-bit
// index, 64 KB of storage).
var Depth7CTTBLarge = core.MustDOLC(7, 5, 6, 6, 3)

// PathSpec renders the spec of the standard real path exit predictor
// over d: LEH-2bit automata with the single-exit optimization.
func PathSpec(d core.DOLC) string {
	return "path:" + engine.FormatDOLC(d) + ":leh2"
}

// CTTBSpec renders the spec of a real CTTB over d.
func CTTBSpec(d core.DOLC) string {
	return "cttb:" + engine.FormatDOLC(d)
}

// StdSpec is the canonical spec of the paper's standard composed task
// predictor: real path-based exit prediction with the single-exit
// optimization, a default-depth RAS, and the small CTTB for indirect
// exits.
func StdSpec() string {
	return fmt.Sprintf("composed:%s:ras%d:%s",
		PathSpec(Depth7Exit), core.DefaultRASDepth, CTTBSpec(Depth7CTTBSmall))
}

// AllSpecs lists the distinct predictor spec families the experiment
// grids use, for preflight validation and spec-grammar tests. Depth
// sweeps are represented by their endpoints plus the flagship points.
func AllSpecs() []string {
	specs := []string{StdSpec()}
	for _, d := range ExitDOLC14 {
		specs = append(specs, PathSpec(d))
	}
	for _, d := range CTTBDOLC11 {
		specs = append(specs, CTTBSpec(d))
	}
	specs = append(specs,
		PathSpec(Depth7Exit)+":nosse",
		PathSpec(Depth7Exit)+":ssh",
		PathSpec(Depth7Exit)+":lat4",
		PathSpec(Depth7Exit)+":dlat4",
		PathSpec(Depth7Exit)+":dlat4:spec",
		StdSpec()+":spec:rlat8",
		"global:d7-c14-i14:leh2",
		"per:d7-h12-t14-i14:leh2",
		"ipath:d7:leh2",
		"iglobal:d7:leh2",
		"iper:d7:leh2",
		"icttb:d7",
	)
	for _, t := range Table4Specs() {
		specs = append(specs, t.Spec)
	}
	return specs
}

// workloadCol renders the canonical workload column header ("exprc(gcc)").
func workloadCol(w *workload.Workload) string {
	return fmt.Sprintf("%s(%s)", w.Name, w.Analog)
}

// writeTables renders a sequence of tables.
func writeTables(w io.Writer, tables ...*stats.Table) error {
	for _, t := range tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
