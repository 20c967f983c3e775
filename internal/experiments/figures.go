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
		tr, err := getTrace(wl, cfg)
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
		tr, err := getTrace(wl, cfg)
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

// Fig6Result is one automaton's miss-rate series in Figure 6.
type Fig6Result struct {
	Automaton string
	Miss      []float64 // indexed by depth 0..Fig6Depths-1
}

// Figure6Data compares the seven prediction automata under ideal
// (alias-free) path history on the gcc analog, as the paper does ("all
// the benchmarks had similar relative performance ... so we only present
// numbers for gcc").
func Figure6Data(cfg Config) ([]Fig6Result, error) {
	var runs []engine.Run
	for _, kind := range core.AllAutomata {
		for d := 0; d < Fig6Depths; d++ {
			runs = append(runs, engine.Run{Workload: "exprc",
				Spec:     fmt.Sprintf("ipath:d%d:%s", d, engine.AutomatonToken(kind)),
				MaxSteps: cfg.MaxSteps})
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig6Result, len(core.AllAutomata))
	for i, kind := range core.AllAutomata {
		r := Fig6Result{Automaton: kind.Name()}
		for d := 0; d < Fig6Depths; d++ {
			r.Miss = append(r.Miss, results[i*Fig6Depths+d].Exit.MissRate())
		}
		out[i] = r
	}
	return out, nil
}

// Figure6 renders Figure6Data.
func Figure6(w io.Writer, cfg Config) error {
	data, err := Figure6Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"automaton"}
	for d := 0; d < Fig6Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 6 — prediction automata (exprc/gcc, ideal path history)", cols...)
	tbl.Note = "exit miss rate by history depth"
	for _, r := range data {
		cells := []string{r.Automaton}
		for _, m := range r.Miss {
			cells = append(cells, stats.Pct(m))
		}
		tbl.AddRow(cells...)
	}
	return writeTables(w, tbl)
}

// Fig7Depths is the history-depth range of the ideal scheme study.
const Fig7Depths = 9 // 0..8

// Fig7Series is one workload's three ideal-scheme series in Figure 7.
type Fig7Series struct {
	Workload string
	Global   []float64
	Per      []float64
	Path     []float64
}

// Figure7Data measures ideal (alias-free) GLOBAL, PER and PATH exit
// prediction across history depths for every workload.
func Figure7Data(cfg Config) ([]Fig7Series, error) {
	var runs []engine.Run
	for _, wl := range workload.All() {
		for d := 0; d < Fig7Depths; d++ {
			for _, scheme := range []string{"iglobal", "iper", "ipath"} {
				runs = append(runs, engine.Run{Workload: wl.Name,
					Spec:     fmt.Sprintf("%s:d%d:leh2", scheme, d),
					MaxSteps: cfg.MaxSteps})
			}
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Fig7Series
	i := 0
	for _, wl := range workload.All() {
		s := Fig7Series{Workload: wl.Name}
		for d := 0; d < Fig7Depths; d++ {
			s.Global = append(s.Global, results[i].Exit.MissRate())
			s.Per = append(s.Per, results[i+1].Exit.MissRate())
			s.Path = append(s.Path, results[i+2].Exit.MissRate())
			i += 3
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure7 renders Figure7Data.
func Figure7(w io.Writer, cfg Config) error {
	data, err := Figure7Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "scheme"}
	for d := 0; d < Fig7Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 7 — ideal (alias-free) exit prediction", cols...)
	tbl.Note = "exit miss rate by history depth"
	for _, s := range data {
		add := func(scheme string, miss []float64) {
			cells := []string{s.Workload, scheme}
			for _, m := range miss {
				cells = append(cells, stats.Pct(m))
			}
			tbl.AddRow(cells...)
		}
		add("GLOBAL", s.Global)
		add("PER", s.Per)
		add("PATH", s.Path)
	}
	return writeTables(w, tbl)
}

// Fig8Workloads are the indirect-heavy analogs studied for address
// prediction, as the paper concentrates on gcc and xlisp ("two had a
// substantial number of indirect branches and indirect calls").
var Fig8Workloads = []string{"exprc", "minilisp", "calcsheet"}

// Figure8Data measures the ideal (infinite, alias-free) CTTB miss rate
// over indirect exits across history depths. Depth 0 is the naive TTB
// limit the paper shows to be very poor.
func Figure8Data(cfg Config) (map[string][]float64, error) {
	var runs []engine.Run
	for _, name := range Fig8Workloads {
		for d := 0; d < Fig7Depths; d++ {
			runs = append(runs, engine.Run{Workload: name,
				Spec: fmt.Sprintf("icttb:d%d", d), MaxSteps: cfg.MaxSteps})
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for i, name := range Fig8Workloads {
		series := make([]float64, Fig7Depths)
		for d := 0; d < Fig7Depths; d++ {
			series[d] = results[i*Fig7Depths+d].Target.MissRate()
		}
		out[name] = series
	}
	return out, nil
}

// Figure8 renders Figure8Data.
func Figure8(w io.Writer, cfg Config) error {
	data, err := Figure8Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for d := 0; d < Fig7Depths; d++ {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 8 — ideal (alias-free) CTTB, indirect exits", cols...)
	tbl.Note = "address miss rate over indirect branch/call exits; d=0 is the naive TTB limit"
	for _, name := range Fig8Workloads {
		cells := []string{name}
		for _, m := range data[name] {
			cells = append(cells, stats.Pct(m))
		}
		tbl.AddRow(cells...)
	}
	return writeTables(w, tbl)
}

// Fig10Series is one workload's real-vs-ideal comparison in Figure 10.
type Fig10Series struct {
	Workload string
	Real     []float64 // per ExitDOLC14 config (depth = index)
	Ideal    []float64 // ideal PATH at the same depth
}

// Figure10Data compares real path-based exit predictors (8 KB PHT,
// DOLC-indexed) against the ideal alias-free predictor at equal depths.
func Figure10Data(cfg Config) ([]Fig10Series, error) {
	runs := realVsIdealExitRuns(workload.Names(), cfg)
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Fig10Series
	n := len(ExitDOLC14)
	for wi, name := range workload.Names() {
		s := Fig10Series{Workload: name}
		base := wi * 2 * n
		for i := 0; i < n; i++ {
			s.Real = append(s.Real, results[base+i].Exit.MissRate())
			s.Ideal = append(s.Ideal, results[base+n+i].Exit.MissRate())
		}
		out = append(out, s)
	}
	return out, nil
}

// realVsIdealExitRuns builds the Figure 10/11 grid: for each workload,
// the real ExitDOLC14 sweep followed by the ideal PATH predictor at the
// same depths.
func realVsIdealExitRuns(names []string, cfg Config) []engine.Run {
	var runs []engine.Run
	for _, name := range names {
		for _, d := range ExitDOLC14 {
			runs = append(runs, engine.Run{Workload: name, Spec: PathSpec(d), MaxSteps: cfg.MaxSteps})
		}
		for i := range ExitDOLC14 {
			runs = append(runs, engine.Run{Workload: name,
				Spec: fmt.Sprintf("ipath:d%d:leh2", i), MaxSteps: cfg.MaxSteps})
		}
	}
	return runs
}

// Figure10 renders Figure10Data.
func Figure10(w io.Writer, cfg Config) error {
	data, err := Figure10Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for _, d := range ExitDOLC14 {
		cols = append(cols, d.String())
	}
	tbl := stats.New("Figure 10 — real vs ideal path-based exit prediction (8 KB PHT)", cols...)
	tbl.Note = "exit miss rate; columns are DOLC configurations D-O-L-C(F)"
	for _, s := range data {
		rr := []string{s.Workload, "real"}
		ri := []string{s.Workload, "ideal"}
		for i := range s.Real {
			rr = append(rr, stats.Pct(s.Real[i]))
			ri = append(ri, stats.Pct(s.Ideal[i]))
		}
		tbl.AddRow(rr...)
		tbl.AddRow(ri...)
	}
	return writeTables(w, tbl)
}

// Fig11Workloads are the contrast pair of the states-touched study: the
// paper shows gcc (saturating) against espresso (small, representative
// of the rest).
var Fig11Workloads = []string{"exprc", "boolmin"}

// Fig11Series is one workload's states-touched comparison.
type Fig11Series struct {
	Workload string
	Ideal    []int // unique contexts seen by the ideal predictor, per depth
	Real     []int // PHT entries touched by the real predictor, per depth
}

// Figure11Data counts predictor states touched, ideal vs real, across
// history depths.
func Figure11Data(cfg Config) ([]Fig11Series, error) {
	runs := realVsIdealExitRuns(Fig11Workloads, cfg)
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Fig11Series
	n := len(ExitDOLC14)
	for wi, name := range Fig11Workloads {
		s := Fig11Series{Workload: name}
		base := wi * 2 * n
		for i := 0; i < n; i++ {
			s.Real = append(s.Real, results[base+i].Exit.States)
			s.Ideal = append(s.Ideal, results[base+n+i].Exit.States)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure11 renders Figure11Data.
func Figure11(w io.Writer, cfg Config) error {
	data, err := Figure11Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for d := range ExitDOLC14 {
		cols = append(cols, fmt.Sprintf("d=%d", d))
	}
	tbl := stats.New("Figure 11 — predictor states touched (16K-entry PHT for real)", cols...)
	tbl.Note = "unique contexts (ideal) vs PHT entries touched (real), by history depth"
	for _, s := range data {
		ri := []string{s.Workload, "ideal"}
		rr := []string{s.Workload, "real"}
		for i := range s.Ideal {
			ri = append(ri, stats.I(s.Ideal[i]))
			rr = append(rr, stats.I(s.Real[i]))
		}
		tbl.AddRow(ri...)
		tbl.AddRow(rr...)
	}
	return writeTables(w, tbl)
}

// Fig12Series is one workload's real-vs-ideal CTTB comparison.
type Fig12Series struct {
	Workload string
	Real     []float64
	Ideal    []float64
}

// Figure12Data compares real CTTBs (8 KB, 11-bit DOLC index) with the
// ideal infinite CTTB at equal depths, over indirect exits.
func Figure12Data(cfg Config) ([]Fig12Series, error) {
	var runs []engine.Run
	for _, name := range Fig8Workloads {
		for _, d := range CTTBDOLC11 {
			runs = append(runs, engine.Run{Workload: name, Spec: CTTBSpec(d), MaxSteps: cfg.MaxSteps})
		}
		for i := range CTTBDOLC11 {
			runs = append(runs, engine.Run{Workload: name,
				Spec: fmt.Sprintf("icttb:d%d", i), MaxSteps: cfg.MaxSteps})
		}
	}
	results, err := execute(cfg, runs)
	if err != nil {
		return nil, err
	}
	var out []Fig12Series
	n := len(CTTBDOLC11)
	for wi, name := range Fig8Workloads {
		s := Fig12Series{Workload: name}
		base := wi * 2 * n
		for i := 0; i < n; i++ {
			s.Real = append(s.Real, results[base+i].Target.MissRate())
			s.Ideal = append(s.Ideal, results[base+n+i].Target.MissRate())
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure12 renders Figure12Data.
func Figure12(w io.Writer, cfg Config) error {
	data, err := Figure12Data(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "series"}
	for _, d := range CTTBDOLC11 {
		cols = append(cols, d.String())
	}
	tbl := stats.New("Figure 12 — real vs ideal CTTB (8 KB buffer), indirect exits", cols...)
	tbl.Note = "address miss rate; columns are DOLC configurations D-O-L-C(F)"
	for _, s := range data {
		rr := []string{s.Workload, "real"}
		ri := []string{s.Workload, "ideal"}
		for i := range s.Real {
			rr = append(rr, stats.Pct(s.Real[i]))
			ri = append(ri, stats.Pct(s.Ideal[i]))
		}
		tbl.AddRow(rr...)
		tbl.AddRow(ri...)
	}
	return writeTables(w, tbl)
}
