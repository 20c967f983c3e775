package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/stats"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

// Figure3 reports the distribution of exit-point counts per task, both
// static (over the TFG) and dynamic (over the task trace), per workload.
func Figure3(w io.Writer, cfg Config) error {
	tbl := stats.New("Figure 3 — number of exits per task",
		"workload", "view", "0 exits", "1 exit", "2 exits", "3 exits", "4 exits")
	for _, wl := range workload.All() {
		g, err := wl.Graph()
		if err != nil {
			return err
		}
		tr, err := workload.CachedColumnar(wl.Name, cfg.MaxSteps)
		if err != nil {
			return err
		}
		sh := g.StaticExitHistogram()
		dh := tr.DynamicExitHistogram()
		row := func(view string, h [tfg.MaxExits + 1]int) {
			total := 0
			for _, n := range h {
				total += n
			}
			cells := []string{workloadCol(wl), view}
			for _, n := range h {
				cells = append(cells, stats.Pct(float64(n)/float64(total)))
			}
			tbl.AddRow(cells...)
		}
		row("static", sh)
		row("dynamic", dh)
	}
	return writeTables(w, tbl)
}

// Figure4 reports the mix of exit control-flow types, static and dynamic.
func Figure4(w io.Writer, cfg Config) error {
	kinds := []isa.ControlKind{
		isa.KindBranch, isa.KindCall, isa.KindReturn,
		isa.KindIndirectBranch, isa.KindIndirectCall,
	}
	cols := []string{"workload", "view"}
	for _, k := range kinds {
		cols = append(cols, k.String())
	}
	tbl := stats.New("Figure 4 — types of exit instructions", cols...)
	for _, wl := range workload.All() {
		g, err := wl.Graph()
		if err != nil {
			return err
		}
		tr, err := workload.CachedColumnar(wl.Name, cfg.MaxSteps)
		if err != nil {
			return err
		}
		row := func(view string, m map[isa.ControlKind]int) {
			total := 0
			for _, n := range m {
				total += n
			}
			cells := []string{workloadCol(wl), view}
			for _, k := range kinds {
				cells = append(cells, stats.Pct(float64(m[k])/float64(total)))
			}
			tbl.AddRow(cells...)
		}
		row("static", g.StaticExitKinds())
		row("dynamic", tr.DynamicExitKinds())
	}
	return writeTables(w, tbl)
}

// Fig6Depths is the history-depth range of the automata study.
const Fig6Depths = 10 // 0..9

// figure6Plan compares the seven prediction automata under ideal
// (alias-free) path history on the gcc analog, as the paper does ("all
// the benchmarks had similar relative performance ... so we only present
// numbers for gcc"): a row per automaton, a column per depth.
func figure6Plan(cfg Config) plan {
	var series [][]engine.Run
	for _, kind := range core.AllAutomata {
		series = append(series, replays(cfg, depthSpecs("ipath:d%d:"+engine.AutomatonToken(kind), Fig6Depths)...))
	}
	return byWorkload([]string{"exprc"}, series...)
}

// Figure6 renders figure6Plan.
func Figure6(w io.Writer, cfg Config) error {
	res, err := figure6Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"automaton"}
	for d := 0; d < Fig6Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 6 — prediction automata (exprc/gcc, ideal path history)", cols...)
	tbl.Note = "exit miss rate by history depth"
	for i, kind := range core.AllAutomata {
		tbl.AddRow(row(res[i], exitMiss, kind.Name())...)
	}
	return writeTables(w, tbl)
}

// Fig7Depths is the history-depth range of the ideal scheme study.
const Fig7Depths = 9 // 0..8

// fig7Schemes are the ideal history schemes of Figure 7: the spec token
// and the rendered series name.
var fig7Schemes = []struct{ token, name string }{
	{"iglobal", "GLOBAL"}, {"iper", "PER"}, {"ipath", "PATH"},
}

// figure7Plan measures ideal (alias-free) GLOBAL, PER and PATH exit
// prediction across history depths for every workload: per workload, a
// row per scheme, a column per depth.
func figure7Plan(cfg Config) plan {
	var series [][]engine.Run
	for _, s := range fig7Schemes {
		series = append(series, replays(cfg, depthSpecs(s.token+":d%d:leh2", Fig7Depths)...))
	}
	return byWorkload(workload.Names(), series...)
}

// Figure7 renders figure7Plan.
func Figure7(w io.Writer, cfg Config) error {
	res, err := figure7Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "scheme"}
	for d := 0; d < Fig7Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 7 — ideal (alias-free) exit prediction", cols...)
	tbl.Note = "exit miss rate by history depth"
	for i, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload, fig7Schemes[i%len(fig7Schemes)].name)...)
	}
	return writeTables(w, tbl)
}

// Fig8Workloads are the indirect-heavy analogs studied for address
// prediction, as the paper concentrates on gcc and xlisp ("two had a
// substantial number of indirect branches and indirect calls").
var Fig8Workloads = []string{"exprc", "minilisp", "calcsheet"}

// figure8Plan measures the ideal (infinite, alias-free) CTTB miss rate
// over indirect exits across history depths. Depth 0 is the naive TTB
// limit the paper shows to be very poor.
func figure8Plan(cfg Config) plan {
	return byWorkload(Fig8Workloads, replays(cfg, depthSpecs("icttb:d%d", Fig7Depths)...))
}

// Figure8 renders figure8Plan.
func Figure8(w io.Writer, cfg Config) error {
	res, err := figure8Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for d := 0; d < Fig7Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 8 — ideal (alias-free) CTTB, indirect exits", cols...)
	tbl.Note = "address miss rate over indirect branch/call exits; d=0 is the naive TTB limit"
	for _, rs := range res {
		tbl.AddRow(row(rs, targetMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}

// exitSweeps are the two rows of the Figure 10/11 comparison: the real
// path-based exit predictor across ExitDOLC14 (8 KB PHT, DOLC-indexed)
// and the ideal alias-free PATH predictor at the same depths.
func exitSweeps(cfg Config) (realSweep, idealSweep []engine.Run) {
	return replays(cfg, dolcSpecs(ExitDOLC14, PathSpec)...),
		replays(cfg, depthSpecs("ipath:d%d:leh2", len(ExitDOLC14))...)
}

// figure10Plan compares real path-based exit predictors against the
// ideal predictor at equal depths: per workload, the real row, then the
// ideal row.
func figure10Plan(cfg Config) plan {
	realSweep, idealSweep := exitSweeps(cfg)
	return byWorkload(workload.Names(), realSweep, idealSweep)
}

// Figure10 renders figure10Plan.
func Figure10(w io.Writer, cfg Config) error {
	res, err := figure10Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for _, d := range ExitDOLC14 {
		cols = append(cols, d.String())
	}
	tbl := stats.New("Figure 10 — real vs ideal path-based exit prediction (8 KB PHT)", cols...)
	tbl.Note = "exit miss rate; columns are DOLC configurations D-O-L-C(F)"
	for i, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload, []string{"real", "ideal"}[i%2])...)
	}
	return writeTables(w, tbl)
}

// Fig11Workloads are the contrast pair of the states-touched study: the
// paper shows gcc (saturating) against espresso (small, representative
// of the rest).
var Fig11Workloads = []string{"exprc", "boolmin"}

// figure11Plan counts predictor states touched across history depths:
// per workload, unique contexts seen by the ideal predictor, then PHT
// entries touched by the real one.
func figure11Plan(cfg Config) plan {
	realSweep, idealSweep := exitSweeps(cfg)
	return byWorkload(Fig11Workloads, idealSweep, realSweep)
}

// Figure11 renders figure11Plan.
func Figure11(w io.Writer, cfg Config) error {
	res, err := figure11Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for d := range ExitDOLC14 {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 11 — predictor states touched (16K-entry PHT for real)", cols...)
	tbl.Note = "unique contexts (ideal) vs PHT entries touched (real), by history depth"
	states := func(r *engine.Result) string { return stats.I(r.Exit.States) }
	for i, rs := range res {
		tbl.AddRow(row(rs, states, rs[0].Run.Workload, []string{"ideal", "real"}[i%2])...)
	}
	return writeTables(w, tbl)
}

// figure12Plan compares real CTTBs (8 KB, 11-bit DOLC index) with the
// ideal infinite CTTB at equal depths, over indirect exits: per
// workload, the real row, then the ideal row.
func figure12Plan(cfg Config) plan {
	return byWorkload(Fig8Workloads,
		replays(cfg, dolcSpecs(CTTBDOLC11, CTTBSpec)...),
		replays(cfg, depthSpecs("icttb:d%d", len(CTTBDOLC11))...))
}

// Figure12 renders figure12Plan.
func Figure12(w io.Writer, cfg Config) error {
	res, err := figure12Plan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for _, d := range CTTBDOLC11 {
		cols = append(cols, d.String())
	}
	tbl := stats.New("Figure 12 — real vs ideal CTTB (8 KB buffer), indirect exits", cols...)
	tbl.Note = "address miss rate; columns are DOLC configurations D-O-L-C(F)"
	for i, rs := range res {
		tbl.AddRow(row(rs, targetMiss, rs[0].Run.Workload, []string{"real", "ideal"}[i%2])...)
	}
	return writeTables(w, tbl)
}
