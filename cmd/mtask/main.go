// Command mtask prints task-level statistics for a workload: the data
// behind the paper's Table 2 and Figures 3–4.
//
// Usage:
//
//	mtask                # all workloads
//	mtask -w minilisp    # one workload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiscalar/internal/isa"
	"multiscalar/internal/workload"
)

func main() {
	wname := flag.String("w", "", "workload name (default: all): "+strings.Join(workload.Names(), ", "))
	steps := flag.Int("steps", 0, "dynamic task budget (0 = run to halt)")
	flag.Parse()

	var ws []*workload.Workload
	if *wname == "" {
		ws = workload.All()
	} else {
		w, err := workload.ByName(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtask:", err)
			os.Exit(1)
		}
		ws = []*workload.Workload{w}
	}
	for _, w := range ws {
		if err := report(w, *steps); err != nil {
			fmt.Fprintln(os.Stderr, "mtask:", err)
			os.Exit(1)
		}
	}
}

func report(w *workload.Workload, steps int) error {
	g, err := w.Graph()
	if err != nil {
		return err
	}
	tr, err := workload.CachedColumnar(w.Name, steps)
	if err != nil {
		return err
	}
	if steps <= 0 {
		_, st, err := w.Columnar()
		if err != nil {
			return err
		}
		defer fmt.Printf("  avg task length: %.1f instructions\n\n", st.InstrsPerTask())
	}
	trLen, dynHist, dynKinds := tr.Len(), tr.DynamicExitHistogram(), tr.DynamicExitKinds()

	fmt.Printf("%s (%s analog): %q\n", w.Name, w.Analog, w.Description)
	fmt.Printf("  program: %d instructions, %d static tasks\n", len(g.Prog.Code), g.NumTasks())
	fmt.Printf("  dynamic: %d tasks, %d distinct seen\n", trLen, tr.DistinctTasks())

	sh := g.StaticExitHistogram()
	fmt.Printf("  exits/task  static:")
	for n, c := range sh {
		fmt.Printf(" %d:%0.1f%%", n, 100*float64(c)/float64(g.NumTasks()))
	}
	fmt.Printf("\n  exits/task dynamic:")
	for n, c := range dynHist {
		fmt.Printf(" %d:%0.1f%%", n, 100*float64(c)/float64(trLen))
	}
	fmt.Println()

	kinds := []isa.ControlKind{isa.KindBranch, isa.KindCall, isa.KindReturn,
		isa.KindIndirectBranch, isa.KindIndirectCall}
	stKinds := g.StaticExitKinds()
	stTotal, dynTotal := 0, 0
	for _, k := range kinds {
		stTotal += stKinds[k]
		dynTotal += dynKinds[k]
	}
	fmt.Printf("  exit kinds  static:")
	for _, k := range kinds {
		fmt.Printf(" %s:%0.1f%%", k, 100*float64(stKinds[k])/float64(stTotal))
	}
	fmt.Printf("\n  exit kinds dynamic:")
	for _, k := range kinds {
		fmt.Printf(" %s:%0.1f%%", k, 100*float64(dynKinds[k])/float64(dynTotal))
	}
	fmt.Println()
	return nil
}
