// Command mtrace records, inspects, and replays dynamic task traces.
// Recording a trace once lets predictor sweeps run without re-executing
// the workload; trace files use the columnar block format ("MSTC"), which
// is written and replayed block-wise in bounded memory.
//
// Usage:
//
//	mtrace record  -w exprc [-steps N] FILE         # execute & save
//	mtrace info    -w exprc FILE                    # validate & summarize
//	mtrace stat    -w exprc FILE                    # columnar layout statistics
//	mtrace replay  -w exprc FILE                    # predictor sweep
//	mtrace stream  -w exprc [-steps N] [-repeat K] [-max-heap-mb M]
//	                                                # generate→replay pipeline, nothing materialized
//	mtrace stream  -w exprc -steps N -progress 256  # live progress lines on stderr
//	mtrace stream  -w exprc -metrics-out m.json     # JSON metrics snapshot (peak-heap gauge) on exit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"unsafe"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/obs"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = cmdRecord(args)
	case "info":
		err = cmdInfo(args)
	case "stat":
		err = cmdStat(args)
	case "replay":
		err = cmdReplay(args)
	case "stream":
		err = cmdStream(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "mtrace: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mtrace record  -w WL [-steps N] FILE
  mtrace info    -w WL FILE
  mtrace stat    -w WL FILE
  mtrace replay  -w WL FILE
  mtrace stream  -w WL [-steps N] [-repeat K] [-max-heap-mb M] [-progress N] [-metrics-out FILE]
workloads: `+strings.Join(workload.Names(), ", "))
}

// flagSet builds a subcommand flag set with the shared -w flag.
func flagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("mtrace "+name, flag.ExitOnError)
	wname := fs.String("w", "exprc", "workload: "+strings.Join(workload.Names(), ", "))
	return fs, wname
}

func graphFor(wname string) (*tfg.Graph, error) {
	w, err := workload.ByName(wname)
	if err != nil {
		return nil, err
	}
	return w.Graph()
}

func cmdRecord(args []string) error {
	fs, wname := flagSet("record")
	steps := fs.Int("steps", 0, "dynamic task budget (0 = run to halt)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("record needs exactly one output file")
	}
	g, err := graphFor(*wname)
	if err != nil {
		return err
	}
	f, err := os.Create(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w, err := trace.NewWriter(bw, g)
	if err != nil {
		return err
	}
	// The trace is streamed to disk segment by segment, never held in
	// memory.
	gen := workload.NewGenerator(g, *steps)
	total := 0
	for {
		seg, err := gen.Next()
		if err != nil {
			return err
		}
		if seg == nil {
			break
		}
		if err := w.Append(seg); err != nil {
			return err
		}
		total += len(seg)
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d steps (%d instructions) to %s\n", total, gen.Machine().Stats().Instrs, fs.Arg(0))
	return nil
}

// load decodes a trace file bound to g. The reader holds every step to
// g's step rule, so a loaded trace is valid for g; a file that does not
// match the graph, or is not MSTC ("bad magic"), fails with the reader's
// ErrCorrupt.
func load(path string, g *tfg.Graph) (*trace.Columnar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := trace.ReadColumnar(bufio.NewReader(f), g, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

func cmdInfo(args []string) error {
	fs, wname := flagSet("info")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("info needs exactly one trace file")
	}
	g, err := graphFor(*wname)
	if err != nil {
		return err
	}
	path := fs.Arg(0)
	c, err := load(path, g)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d steps, %d prediction events, %d distinct tasks — valid for %s\n",
		path, c.Len(), c.PredictionSteps(), c.DistinctTasks(), *wname)
	hist := c.DynamicExitHistogram()
	fmt.Printf("exits-per-task distribution: %v\n", hist)
	return nil
}

func cmdStat(args []string) error {
	fs, wname := flagSet("stat")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("stat needs exactly one trace file")
	}
	g, err := graphFor(*wname)
	if err != nil {
		return err
	}
	path := fs.Arg(0)
	c, err := load(path, g)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	steps := c.Len()
	blocks := (steps + trace.BlockSteps - 1) / trace.BlockSteps
	fmt.Printf("%s: %d steps in %d blocks of %d\n", path, steps, blocks, trace.BlockSteps)
	fmt.Printf("dictionary: %d entries (%d distinct tasks)\n", c.Dict.Len(), c.DistinctTasks())
	fmt.Printf("columnar encoding: %d bytes on disk (%.3f B/step), %d bytes in memory (%.2f B/step)\n",
		fi.Size(), float64(fi.Size())/float64(max(steps, 1)),
		c.Footprint(), float64(c.Footprint())/float64(max(steps, 1)))
	fmt.Printf("array-of-structs equivalent: %d bytes in memory (%d B/step)\n",
		steps*stepBytes, stepBytes)
	return nil
}

// stepBytes is the in-memory size of one array-of-structs trace step,
// the baseline the columnar and streamed figures are compared against.
const stepBytes = int(unsafe.Sizeof(trace.Step{}))

// sweepPreds is the standard exit-predictor sweep replayed by `replay`
// and `stream`.
func sweepPreds() []core.ExitPredictor {
	return []core.ExitPredictor{
		engine.MustBuildExit("iglobal:d7:leh2"),
		engine.MustBuildExit("iper:d7:leh2"),
		engine.MustBuildExit("ipath:d7:leh2"),
		engine.MustBuildExit("path:d7-o5-l6-c6-f3:leh2"),
	}
}

func cmdReplay(args []string) error {
	fs, wname := flagSet("replay")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("replay needs exactly one trace file")
	}
	g, err := graphFor(*wname)
	if err != nil {
		return err
	}
	c, err := load(fs.Arg(0), g)
	if err != nil {
		return err
	}
	for _, p := range sweepPreds() {
		res, err := core.EvaluateExitBlocks(c.Blocks(), p)
		if err != nil {
			return err
		}
		fmt.Printf("%-32s %6.2f%% misses (%d / %d, %d states)\n", res.Name, 100*res.MissRate(), res.Misses, res.Steps, res.States)
	}
	return nil
}

// heapSampler wraps a block source, sampling the Go heap every few
// blocks to observe the replay pipeline's peak footprint.
type heapSampler struct {
	src    trace.BlockSource
	blocks int
	peak   uint64
}

func (h *heapSampler) NextBlock() (*trace.Block, error) {
	if h.blocks%64 == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak {
			h.peak = ms.HeapAlloc
		}
	}
	h.blocks++
	return h.src.NextBlock()
}

// progressPrinter wraps a block source, printing a live progress line
// every few blocks. All figures come from the run status snapshot (the
// registry owns the clock), so the replay loop itself never reads time.
type progressPrinter struct {
	src    trace.BlockSource
	st     *obs.RunStatus
	every  int
	blocks int
	w      io.Writer
}

func (p *progressPrinter) NextBlock() (*trace.Block, error) {
	b, err := p.src.NextBlock()
	if b != nil {
		p.blocks++
		if p.every > 0 && p.blocks%p.every == 0 {
			snap := p.st.Snapshot()
			if snap.Total > 0 {
				fmt.Fprintf(p.w, "mtrace: %d/%d steps (%.0f%%, %.0f steps/s, eta %.0fs)\n",
					snap.Steps, snap.Total, 100*float64(snap.Steps)/float64(snap.Total),
					snap.StepsPerSecond, snap.ETASeconds)
			} else {
				fmt.Fprintf(p.w, "mtrace: %d steps (%.0f steps/s)\n", snap.Steps, snap.StepsPerSecond)
			}
		}
	}
	return b, err
}

func cmdStream(args []string) error {
	fs, wname := flagSet("stream")
	steps := fs.Int("steps", 0, "dynamic task budget per pass (0 = run to halt)")
	repeat := fs.Int("repeat", 1, "number of back-to-back passes (synthesizes long streams)")
	maxHeapMB := fs.Int("max-heap-mb", 0, "fail if sampled peak heap exceeds this many MiB (0 = no ceiling)")
	predStr := fs.String("pred", "path:d7-o5-l6-c6-f3:leh2", "exit predictor spec to replay")
	progress := fs.Int("progress", 0, "print a progress line to stderr every N blocks (0 = off)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot (incl. peak-heap gauge) to this file on exit ('' = off)")
	httpAddr := fs.String("http", "", "serve pprof/expvar//metricz//runz on this address while streaming ('' = off)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return errors.New("stream takes no positional arguments")
	}
	outputs, err := obs.CLISetup("mtrace", *httpAddr, *metricsOut, "", os.Stderr)
	if err != nil {
		return err
	}
	runErr := streamRun(*wname, *steps, *repeat, *maxHeapMB, *predStr, *progress)
	if ferr := outputs.Flush(); ferr != nil && runErr == nil {
		runErr = ferr
	}
	return runErr
}

func streamRun(wname string, steps, repeat, maxHeapMB int, predStr string, progress int) error {
	// The engine admits the spec as a streamed exit replay: a :spec run
	// replays through the speculative session, never idealized.
	sp, mode, err := engine.Resolve(engine.Run{Workload: wname, Spec: predStr, Mode: engine.ModeExit, Stream: true})
	if err != nil {
		return err
	}
	src, err := workload.StreamBlocks(wname, steps, repeat)
	if err != nil {
		return err
	}

	// The run status is the stream's telemetry side channel: the engine
	// wrapper credits steps, the printer and any -http viewer read them.
	st := obs.Runs().Start("stream:"+wname, wname, predStr, mode.String())
	if steps > 0 {
		st.SetTotal(int64(steps * repeat))
	}
	st.SetPhase(obs.PhaseRunning)

	sampler := &heapSampler{src: engine.WithProgress(src, st)}
	var outer trace.BlockSource = sampler
	if progress > 0 {
		outer = &progressPrinter{src: sampler, st: st, every: progress, w: os.Stderr}
	}
	var out engine.Result
	if err := engine.ReplayBlocks(sp, mode, outer, &out); err != nil {
		st.Fail()
		return err
	}
	res := out.Exit
	st.Finish()
	// One final sample after the run so short streams still report.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > sampler.peak {
		sampler.peak = ms.HeapAlloc
	}
	obs.Default().Gauge("mtrace.stream.peak_heap_bytes").Set(int64(sampler.peak))
	peakMB := float64(sampler.peak) / (1 << 20)
	fmt.Printf("streamed %d prediction steps in %d blocks through %s: %6.2f%% misses (%d / %d, %d states)\n",
		res.Steps, sampler.blocks, res.Name, 100*res.MissRate(), res.Misses, res.Steps, res.States)
	if sp.SpecUpdate() {
		fmt.Printf("rollbacks %d (%d speculative frames repaired)\n", res.Rollbacks, res.RepairFrames)
	}
	fmt.Printf("peak heap %.1f MiB (in-memory equivalent ≥ %.1f MiB)\n",
		peakMB, float64(res.Steps*stepBytes)/(1<<20))
	if maxHeapMB > 0 && peakMB > float64(maxHeapMB) {
		return fmt.Errorf("peak heap %.1f MiB exceeds ceiling %d MiB", peakMB, maxHeapMB)
	}
	return nil
}
