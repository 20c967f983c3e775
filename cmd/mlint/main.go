// Command mlint runs the static analyzer over built-in workloads, MSL
// source files, or MSA assembly files, together with an optional
// predictor spec (the engine grammar; the paper's standard composed
// predictor by default). Error-severity diagnostics set a nonzero exit
// status, so CI can gate on a clean lint.
//
// Usage:
//
//	mlint -w all                          # lint every built-in workload
//	mlint -w exprc -json                  # machine-readable diagnostics
//	mlint -w all -report                  # static predictability report (JSON)
//	mlint prog.msl other.msl              # lint MSL sources
//	mlint -asm prog.s                     # lint MSA assembly
//	mlint -w exprc -pred path:d4-o2-l6-c8:leh2  # lint under another predictor
//	mlint -w minilisp -pred composed:path:d7-o5-l6-c6-f3:leh2:ras32
//	                                      # no CTTB: indirect-coverage warns
//	mlint -w exprc -fault all=1e-3,seed=7 # validate a fault-injection spec
//	mlint -w exprc -min warn              # hide info diagnostics
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiscalar/internal/asm"
	"multiscalar/internal/lint"
	"multiscalar/internal/msl"
	"multiscalar/internal/program"
	"multiscalar/internal/taskform"
	"multiscalar/internal/workload"
)

// stdSpec is the paper's standard composed task predictor: depth-7
// path-based exit prediction, a 32-entry RAS and the small CTTB.
const stdSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

func main() {
	wname := flag.String("w", "", "lint a built-in workload by name, or 'all': "+strings.Join(workload.Names(), ", "))
	asAsm := flag.Bool("asm", false, "treat file arguments as MSA assembly instead of MSL")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	reportOut := flag.Bool("report", false, "emit the static predictability report (per-task dataflow facts) as JSON instead of diagnostics")
	predStr := flag.String("pred", stdSpec, "predictor spec string (engine grammar) the config passes check")
	faultStr := flag.String("fault", "", "fault injection spec to validate (e.g. all=1e-3,seed=7; '' = none)")
	minStr := flag.String("min", "info", "minimum severity to print: info | warn | error")
	maxInstr := flag.Int("task-instr", 0, "task former instruction budget (0 = default)")
	flag.Parse()

	code, err := run(*wname, flag.Args(), *asAsm, *jsonOut, *reportOut, *predStr, *faultStr, *minStr, *maxInstr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// target is one lint subject: a named program (with its TFG when the
// task former succeeds).
type target struct {
	name string
	prog *program.Program
}

func collectTargets(wname string, files []string, asAsm bool) ([]target, error) {
	var out []target
	switch {
	case wname == "all":
		for _, w := range workload.All() {
			p, err := w.Program()
			if err != nil {
				return nil, err
			}
			out = append(out, target{w.Name, p})
		}
	case wname != "":
		w, err := workload.ByName(wname)
		if err != nil {
			return nil, err
		}
		p, err := w.Program()
		if err != nil {
			return nil, err
		}
		out = append(out, target{w.Name, p})
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var p *program.Program
		if asAsm {
			p, err = asm.Assemble(string(src))
		} else {
			p, err = msl.Compile(string(src), msl.Options{})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, target{path, p})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nothing to lint (give -w <workload>, -w all, or source files)")
	}
	return out, nil
}

func run(wname string, files []string, asAsm, jsonOut, reportOut bool, predStr, faultStr, minStr string, maxInstr int) (int, error) {
	min, err := lint.ParseSeverity(minStr)
	if err != nil {
		return 0, err
	}
	// The specs are passed through raw: validating them is exactly the
	// job of the cfg-pred-spec and cfg-fault-spec passes.
	cfg := &lint.PredictorConfig{PredSpec: predStr, FaultSpec: faultStr}
	targets, err := collectTargets(wname, files, asAsm)
	if err != nil {
		return 0, err
	}

	if reportOut {
		var rts []lint.ReportTarget
		for _, t := range targets {
			graph, perr := taskform.Partition(t.prog, taskform.Options{MaxInstr: maxInstr})
			if perr != nil {
				return 0, fmt.Errorf("%s: task former failed: %v (the report needs a TFG)", t.name, perr)
			}
			rt, err := lint.BuildReportTarget(t.name, lint.NewContext(t.prog, graph, cfg))
			if err != nil {
				return 0, err
			}
			rts = append(rts, rt)
		}
		if err := lint.WriteReport(os.Stdout, rts); err != nil {
			return 0, err
		}
		return 0, nil
	}

	failed := false
	var jsonTargets []lint.Target
	for _, t := range targets {
		// Partition to the TFG when possible; a program the task former
		// rejects is still linted at the program layer.
		graph, perr := taskform.Partition(t.prog, taskform.Options{MaxInstr: maxInstr})
		rep := lint.Run(lint.NewContext(t.prog, graph, cfg))
		if rep.HasErrors() {
			failed = true
		}
		if jsonOut {
			jsonTargets = append(jsonTargets, lint.Target{Name: t.name, Report: rep})
			continue
		}
		fmt.Printf("%s: %s\n", t.name, rep.Summary())
		if perr != nil {
			fmt.Printf("  (task former failed: %v; TFG passes skipped)\n", perr)
		}
		if err := rep.WriteText(indent{os.Stdout}, min); err != nil {
			return 0, err
		}
	}
	if jsonOut {
		if err := lint.WriteJSON(os.Stdout, jsonTargets); err != nil {
			return 0, err
		}
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// indent prefixes each written chunk with two spaces (diagnostics are
// written line-at-a-time).
type indent struct{ w *os.File }

func (i indent) Write(p []byte) (int, error) {
	if _, err := i.w.WriteString("  "); err != nil {
		return 0, err
	}
	return i.w.Write(p)
}
