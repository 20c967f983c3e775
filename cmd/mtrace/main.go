// Command mtrace records, inspects, converts, and replays dynamic task
// traces. Recording a trace once lets predictor sweeps run without
// re-executing the workload; the columnar format ("MSTC") additionally
// replays block-wise in bounded memory.
//
// Usage:
//
//	mtrace record  -w exprc [-steps N] [-columnar] FILE   # execute & save
//	mtrace info    -w exprc FILE                          # validate & summarize (either format)
//	mtrace stat    -w exprc FILE                          # columnar layout statistics
//	mtrace convert -w exprc IN OUT                        # legacy ⇄ columnar (sniffs input)
//	mtrace replay  -w exprc FILE                          # predictor sweep (either format)
//	mtrace stream  -w exprc [-steps N] [-repeat K] [-max-heap-mb M]
//	                                                      # generate→replay pipeline, nothing materialized
//	mtrace stream  -w exprc -steps N -progress 256        # live progress lines on stderr
//	mtrace stream  -w exprc -metrics-out m.json           # JSON metrics snapshot (peak-heap gauge) on exit
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
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
	case "convert":
		err = cmdConvert(args)
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
  mtrace record  -w WL [-steps N] [-columnar] FILE
  mtrace info    -w WL FILE
  mtrace stat    -w WL FILE
  mtrace convert -w WL IN OUT
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
	columnar := fs.Bool("columnar", false, "write the columnar block format (streamed: the trace is never held in memory)")
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

	if *columnar {
		w, err := trace.NewWriter(bw, g)
		if err != nil {
			return err
		}
		m := functional.NewMachine(g, functional.Config{})
		total := 0
		for {
			chunk := trace.BlockSteps
			if *steps > 0 {
				if rem := *steps - total; rem < chunk {
					chunk = rem
				}
			}
			if chunk <= 0 {
				break
			}
			seg, err := m.Run(functional.Config{MaxSteps: chunk})
			if err != nil {
				return err
			}
			if err := w.Append(seg.Steps); err != nil {
				return err
			}
			total += len(seg.Steps)
			if m.Stats().Halted || len(seg.Steps) == 0 {
				break
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fmt.Printf("recorded %d steps (%d instructions) to %s (columnar)\n", total, m.Stats().Instrs, fs.Arg(0))
		return nil
	}

	tr, stats, err := functional.Run(g, functional.Config{MaxSteps: *steps})
	if err != nil {
		return err
	}
	if err := tr.Write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d steps (%d instructions) to %s\n", tr.Len(), stats.Instrs, fs.Arg(0))
	return nil
}

// load sniffs the file's magic and decodes either trace format into a
// columnar trace plus, for the legacy format, the original struct trace.
func load(path string, g *tfg.Graph) (*trace.Columnar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, trace.ErrTruncated)
	}
	if isColumnarMagic(magic) {
		return trace.ReadColumnar(br, g, 0)
	}
	tr, err := trace.Read(br, g)
	if err != nil {
		return nil, err
	}
	return trace.FromTrace(tr)
}

// isColumnarMagic reports whether the 4 sniffed bytes are the columnar
// magic ("MSTC" little-endian).
func isColumnarMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == 0x43 && b[1] == 0x54 && b[2] == 0x53 && b[3] == 0x4d
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
	if err := c.Materialize().Validate(); err != nil {
		return fmt.Errorf("trace does not match %s's TFG: %w", *wname, err)
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
	// On-disk size of the columnar framing for this trace (recomputed for
	// legacy inputs so stat always describes the columnar layout).
	var enc bytes.Buffer
	if err := c.Encode(&enc); err != nil {
		return err
	}
	steps := c.Len()
	blocks := (steps + trace.BlockSteps - 1) / trace.BlockSteps
	fmt.Printf("%s: %d steps in %d blocks of %d\n", path, steps, blocks, trace.BlockSteps)
	fmt.Printf("dictionary: %d entries (%d distinct tasks)\n", c.Dict.Len(), c.DistinctTasks())
	fmt.Printf("file: %d bytes (%.3f B/step as stored)\n", fi.Size(), float64(fi.Size())/float64(max(steps, 1)))
	fmt.Printf("columnar encoding: %d bytes on disk (%.3f B/step), %d bytes in memory (%.2f B/step)\n",
		enc.Len(), float64(enc.Len())/float64(max(steps, 1)),
		c.Footprint(), float64(c.Footprint())/float64(max(steps, 1)))
	fmt.Printf("legacy array-of-structs equivalent: %d bytes in memory (%d B/step)\n",
		steps*12, 12)
	return nil
}

func cmdConvert(args []string) error {
	fs, wname := flagSet("convert")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("convert needs an input and an output file")
	}
	g, err := graphFor(*wname)
	if err != nil {
		return err
	}
	in, out := fs.Arg(0), fs.Arg(1)

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	br := bufio.NewReader(f)
	magic, err := br.Peek(4)
	if err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", in, trace.ErrTruncated)
	}
	toColumnar := !isColumnarMagic(magic)

	o, err := os.Create(out)
	if err != nil {
		f.Close()
		return err
	}
	defer o.Close()
	bw := bufio.NewWriter(o)

	var steps int
	if toColumnar {
		tr, err := trace.Read(br, g)
		f.Close()
		if err != nil {
			return err
		}
		c, err := trace.FromTrace(tr)
		if err != nil {
			return err
		}
		if err := c.Encode(bw); err != nil {
			return err
		}
		steps = c.Len()
	} else {
		c, err := trace.ReadColumnar(br, g, 0)
		f.Close()
		if err != nil {
			return err
		}
		if err := c.Materialize().Write(bw); err != nil {
			return err
		}
		steps = c.Len()
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	dir := "legacy → columnar"
	if !toColumnar {
		dir = "columnar → legacy"
	}
	fmt.Printf("converted %s (%s, %d steps) to %s\n", in, dir, steps, out)
	return nil
}

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
		fmt.Printf("%-32s %6.2f%% misses (%d states)\n", res.Name, 100*res.MissRate(), res.States)
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
	sp, err := engine.Parse(predStr)
	if err != nil {
		return err
	}
	p, err := sp.BuildExit()
	if err != nil {
		return err
	}
	src, err := workload.StreamBlocks(wname, steps, repeat)
	if err != nil {
		return err
	}

	// The run status is the stream's telemetry side channel: the engine
	// wrapper credits steps, the printer and any -http viewer read them.
	st := obs.Runs().Start("stream:"+wname, wname, predStr, "exit")
	if steps > 0 {
		st.SetTotal(int64(steps * repeat))
	}
	st.SetPhase(obs.PhaseRunning)

	sampler := &heapSampler{src: engine.WithProgress(src, st)}
	var outer trace.BlockSource = sampler
	if progress > 0 {
		outer = &progressPrinter{src: sampler, st: st, every: progress, w: os.Stderr}
	}
	res, err := core.EvaluateExitBlocks(outer, p)
	if err != nil {
		st.Fail()
		return err
	}
	st.Finish()
	// One final sample after the run so short streams still report.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > sampler.peak {
		sampler.peak = ms.HeapAlloc
	}
	obs.Default().Gauge("mtrace.stream.peak_heap_bytes").Set(int64(sampler.peak))
	peakMB := float64(sampler.peak) / (1 << 20)
	fmt.Printf("streamed %d prediction steps in %d blocks through %s: %6.2f%% misses (%d states)\n",
		res.Steps, sampler.blocks, res.Name, 100*res.MissRate(), res.States)
	fmt.Printf("peak heap %.1f MiB (in-memory equivalent ≥ %.1f MiB)\n",
		peakMB, float64(res.Steps)*44/(1<<20))
	if maxHeapMB > 0 && peakMB > float64(maxHeapMB) {
		return fmt.Errorf("peak heap %.1f MiB exceeds ceiling %d MiB", peakMB, maxHeapMB)
	}
	return nil
}
