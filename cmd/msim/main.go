// Command msim runs one workload under one predictor spec and reports
// prediction statistics (and optionally ring-model timing). The -pred
// spec grammar is the engine's (internal/engine): exit-only specs replay
// exit prediction, cttb: specs replay indirect-target prediction,
// composed: specs replay full task prediction, and "perfect" drives the
// timing model with oracle prediction.
//
// Usage:
//
//	msim -w exprc                                     # standard composed predictor
//	msim -w minilisp -pred path:d5-o4-l6-c6-f2:le     # exit-only replay
//	msim -w compressb -pred cttb:d7-o5-l6-c6-f3       # CTTB target replay
//	msim -w calcsheet -timing                         # ring-model IPC
//	msim -w calcsheet -pred perfect -timing           # oracle timing bound
//	msim -w exprc -steps 200000                       # truncate the run
//	msim -w exprc -fault all=1e-3,seed=7              # seeded fault injection
//	msim -w exprc -pred composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8 -timing
//	                                                  # speculative update with checkpoint repair
//	msim -w exprc -http localhost:6060                # pprof + expvar + /metricz
//	msim -w exprc -metrics-out m.json -trace-out t.json
//
// The observability flags (internal/obs) are opt-in and record off the
// results path: printed statistics are identical with them on or off.
// The trace file is Chrome trace-event JSON (open in Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/lint"
	"multiscalar/internal/obs"
	"multiscalar/internal/workload"
)

// stdSpec is the canonical spec of the paper's standard composed task
// predictor: depth-7 path-based exit prediction, a default-depth RAS,
// and the small CTTB for indirect exits.
const stdSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

func main() {
	wname := flag.String("w", "exprc", "workload: "+strings.Join(workload.Names(), ", "))
	pred := flag.String("pred", stdSpec, "predictor spec (engine grammar, e.g. path:d7-o5-l6-c6-f3:leh2 or composed:...)")
	steps := flag.Int("steps", 0, "dynamic task budget (0 = run to halt)")
	doTiming := flag.Bool("timing", false, "also run the ring timing model")
	faultStr := flag.String("fault", "", "fault injection spec (e.g. all=1e-3 or ctr=1e-3,ras=1e-2,seed=7; '' = off)")
	httpAddr := flag.String("http", "", "serve pprof/expvar//metricz on this address (e.g. localhost:6060; '' = off)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit ('' = off)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file here on exit ('' = off)")
	flag.Parse()

	outputs, err := obs.CLISetup("msim", *httpAddr, *metricsOut, *traceOut, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msim:", err)
		os.Exit(1)
	}

	code := 0
	if err := run(*wname, *pred, *faultStr, *steps, *doTiming); err != nil {
		fmt.Fprintln(os.Stderr, "msim:", err)
		code = 1
	}
	// Exactly-once flush on success and error paths alike.
	if err := outputs.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "msim:", err)
		code = 1
	}
	os.Exit(code)
}

func run(wname, predStr, faultStr string, steps int, doTiming bool) error {
	w, err := workload.ByName(wname)
	if err != nil {
		return err
	}
	sp, err := engine.Parse(predStr)
	if err != nil {
		return err
	}

	// Static analysis gate: lint the workload's TFG together with the
	// exact predictor spec before a single task executes.
	g, err := w.Graph()
	if err != nil {
		return err
	}
	rep := lint.Run(lint.NewContext(g.Prog, g,
		&lint.PredictorConfig{PredSpec: predStr, FaultSpec: faultStr}))
	if err := rep.WriteText(os.Stderr, lint.Warn); err != nil {
		return err
	}
	if rep.HasErrors() {
		return fmt.Errorf("lint found %d errors in %s under this configuration", rep.Count(lint.Error), wname)
	}

	// The perfect oracle has no replayable state: under -timing it skips
	// the replay, and without it the engine refuses its task replay.
	if !doTiming || sp.Class() != engine.ClassPerfect {
		replay := engine.Run{Workload: w.Name, Spec: predStr, Fault: faultStr, MaxSteps: steps}
		if sp.Class() == engine.ClassPerfect {
			replay.Mode = engine.ModeTask
		}
		res := engine.Do(replay)
		if res.Err != nil {
			return res.Err
		}
		c, err := workload.CachedColumnar(w.Name, steps)
		if err != nil {
			return err
		}
		fmt.Printf("workload %s (%s analog): %d dynamic tasks, %d distinct\n",
			w.Name, w.Analog, c.Len(), c.DistinctTasks())
		fmt.Printf("predictor %s\n", sp)
		switch res.Mode {
		case engine.ModeExit:
			fmt.Printf("  exit miss rate     %6.2f%%  (%d / %d)\n",
				100*res.Exit.MissRate(), res.Exit.Misses, res.Exit.Steps)
			if sp.SpecUpdate() {
				fmt.Printf("  rollbacks          %d  (%d speculative frames repaired)\n",
					res.Exit.Rollbacks, res.Exit.RepairFrames)
			}
		case engine.ModeTarget:
			fmt.Printf("  target miss rate   %6.2f%%  (%d / %d indirect exits)\n",
				100*res.Target.MissRate(), res.Target.Misses, res.Target.Steps)
		case engine.ModeTask:
			fmt.Printf("  task miss rate     %6.2f%%  (%d / %d)\n",
				100*res.Task.MissRate(), res.Task.Misses, res.Task.Steps)
			if sp.HasExit() {
				fmt.Printf("  exit miss rate     %6.2f%%\n", 100*res.Task.ExitMissRate())
			}
			for _, k := range []isa.ControlKind{isa.KindBranch, isa.KindCall, isa.KindReturn,
				isa.KindIndirectBranch, isa.KindIndirectCall} {
				km := res.Task.ByKind[k]
				if km.Steps == 0 {
					continue
				}
				fmt.Printf("  %-18s %6.2f%%  (%d / %d)\n", k.String()+" misses",
					100*float64(km.Misses)/float64(km.Steps), km.Misses, km.Steps)
			}
			if sp.SpecUpdate() {
				fmt.Printf("  rollbacks          %d  (%d speculative frames repaired, %d with RAS damage)\n",
					res.Task.Rollbacks, res.Task.RepairFrames, res.Task.RASDamage)
			}
			if res.Faulted {
				fmt.Printf("  faults injected    %s\n", res.Injection)
			}
		}
	}

	if doTiming {
		res := engine.Do(engine.Run{Workload: w.Name, Spec: predStr, Fault: faultStr,
			Mode: engine.ModeTiming, TimingSteps: steps})
		if res.Err != nil {
			return res.Err
		}
		fmt.Printf("timing (4 units, 2-way): IPC %.2f over %d cycles, %d tasks, task miss %.2f%%\n",
			res.Timing.IPC(), res.Timing.Cycles, res.Timing.Tasks, 100*res.Timing.TaskMissRate())
		if sp.SpecUpdate() {
			fmt.Printf("  predictor repairs: %d rollbacks, %d dispatch cycles stalled\n",
				res.Timing.Rollbacks, res.Timing.RepairCycles)
		}
	}
	return nil
}
