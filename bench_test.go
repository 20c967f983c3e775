package multiscalar_test

// The benchmark harness: one testing.B benchmark per paper table/figure
// (each regenerates that experiment's rows on truncated traces sized for
// benchmarking; `cmd/mbench` produces the full-trace numbers recorded in
// EXPERIMENTS.md), plus micro-benchmarks of the predictor hot paths and
// the substrate (interpreter, compiler, task former).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"io"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/isa"
	"multiscalar/internal/msl"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/taskform"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// benchCfg truncates experiment traces so a full -bench=. pass stays in
// the minutes range while still exercising every code path of every
// experiment.
var benchCfg = experiments.Config{MaxSteps: 120000, TimingSteps: 60000}

func benchExperiment(b *testing.B, name string) {
	r, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shared workload caches outside the timer.
	for _, w := range workload.All() {
		if _, err := w.Graph(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }

func BenchmarkIntraTask(b *testing.B) { benchExperiment(b, "intratask") }

func BenchmarkAblationFolding(b *testing.B)       { benchExperiment(b, "ablation-folding") }
func BenchmarkAblationSingleExit(b *testing.B)    { benchExperiment(b, "ablation-singleexit") }
func BenchmarkAblationRAS(b *testing.B)           { benchExperiment(b, "ablation-ras") }
func BenchmarkAblationRealHistories(b *testing.B) { benchExperiment(b, "ablation-real-histories") }
func BenchmarkAblationUpdateDelay(b *testing.B)   { benchExperiment(b, "ablation-updatedelay") }
func BenchmarkSpecUpdate(b *testing.B)            { benchExperiment(b, "specupdate") }

// ---- predictor hot paths -------------------------------------------------

// benchTrace returns a shared truncated trace for microbenchmarks.
func benchTrace(b *testing.B, name string, steps int) *trace.Trace {
	b.Helper()
	c, err := workload.CachedColumnar(name, steps)
	if err != nil {
		b.Fatal(err)
	}
	return c.Materialize()
}

// BenchmarkPathExitPredict measures the per-step cost of the real
// path-based exit predictor (the hardware-modelled hot path).
func BenchmarkPathExitPredict(b *testing.B) {
	tr := benchTrace(b, "exprc", 200000)
	p := engine.MustBuildExit("path:d7-o5-l6-c6-f3:leh2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Steps[i%tr.PredictionSteps()]
		t := tr.Graph.TaskAt(s.Task)
		_ = p.PredictExit(t)
		p.UpdateExit(t, int(s.Exit))
	}
}

// BenchmarkIdealPathPredict measures the alias-free predictor's map-keyed
// step cost.
func BenchmarkIdealPathPredict(b *testing.B) {
	tr := benchTrace(b, "exprc", 200000)
	p := core.NewIdealPath(7, core.LEH2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Steps[i%tr.PredictionSteps()]
		t := tr.Graph.TaskAt(s.Task)
		_ = p.PredictExit(t)
		p.UpdateExit(t, int(s.Exit))
	}
}

// BenchmarkCTTBStep measures the correlated target buffer's per-step cost.
func BenchmarkCTTBStep(b *testing.B) {
	buf := engine.MustBuildTarget("cttb:d7-o4-l4-c5-f3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := isa.Addr(i & 0xFFFF)
		_, _ = buf.Lookup(cur)
		buf.Train(cur, cur+1)
		buf.Advance(cur)
	}
}

// BenchmarkDOLCIndex measures the index-generation fold alone.
func BenchmarkDOLCIndex(b *testing.B) {
	d := core.MustDOLC(7, 5, 6, 6, 3)
	var h core.PathHistory
	for i := 0; i < 8; i++ {
		h.Push(isa.Addr(i * 37))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Index(&h, isa.Addr(i))
	}
}

// BenchmarkHeaderPredictorStep measures the fully composed predictor.
func BenchmarkHeaderPredictorStep(b *testing.B) {
	tr := benchTrace(b, "minilisp", 200000)
	p := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Steps[i%tr.PredictionSteps()]
		t := tr.Graph.TaskAt(s.Task)
		_ = p.Predict(t)
		p.Update(t, core.Outcome{Exit: int(s.Exit), Target: s.Target})
	}
}

// ---- block kernels (the sweep substrate's hot path) ---------------------
//
// The ...Blocks benchmarks replay truncated workload traces through the
// block-wise kernels over the columnar encoding — the only production
// replay path. With the probes' block fast paths, interface dispatch
// costs one call per 4096-step block, so BenchmarkEvaluate{Exit,
// Indirect,Task}Blocks measure the loop machinery itself; the real
// predictor rows (PATH, GLOBAL, PER, ideal PATH, CTTB and the composed
// task predictor) give the end-to-end per-step cost. All of these feed
// the benchdiff regression gate (scripts/benchdiff, BENCH_baseline.json).

const benchReplaySteps = 120000

// reportPerStepN converts whole-replay ns/op into ns/step.
func reportPerStepN(b *testing.B, predSteps int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(predSteps)), "ns/step")
}

// benchColumnarTrace returns the shared truncated columnar trace
// (workload.CachedColumnar memoizes process-wide).
func benchColumnarTrace(b *testing.B, name string) *trace.Columnar {
	b.Helper()
	c, err := workload.CachedColumnar(name, benchReplaySteps)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkEvaluateExitBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "exprc")
	p := &probeExit{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateExitBlocks(c.Blocks(), p); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

func BenchmarkEvaluateExitPathBlocks(b *testing.B) { benchExitBlocks(b, "path:d7-o5-l6-c6-f3:leh2") }

// The real GLOBAL and PER, ideal PATH and real CTTB rows replay the
// other paper predictors through their own block kernels.

// benchExitBlocks replays spec's exit predictor over the exprc columns.
// One untimed replay first grows the predictor's tables (ideal maps and
// slot slices, undo rings) to the trace's working set, which Reset keeps,
// so allocs/op is the steady-state count whatever b.N is.
func benchExitBlocks(b *testing.B, spec string) {
	c := benchColumnarTrace(b, "exprc")
	p := engine.MustBuildExit(spec)
	if _, err := core.EvaluateExitBlocks(c.Blocks(), p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateExitBlocks(c.Blocks(), p); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

func BenchmarkEvaluateExitGlobalBlocks(b *testing.B) { benchExitBlocks(b, "global:d7-c14-i14:leh2") }

func BenchmarkEvaluateExitPerBlocks(b *testing.B) { benchExitBlocks(b, "per:d7-h12-t14-i14:leh2") }

func BenchmarkEvaluateExitIdealPathBlocks(b *testing.B) { benchExitBlocks(b, "ipath:d7:leh2") }

func BenchmarkEvaluateIndirectCTTBBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "minilisp")
	buf := engine.MustBuildTarget("cttb:d7-o4-l4-c5-f3")
	if _, err := core.EvaluateIndirectBlocks(c.Blocks(), buf); err != nil { // warm-up, as benchExitBlocks
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateIndirectBlocks(c.Blocks(), buf); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

func BenchmarkEvaluateIndirectBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "minilisp")
	buf := &probeBuf{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateIndirectBlocks(c.Blocks(), buf); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

func BenchmarkEvaluateTaskBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "exprc")
	p := &probeTask{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateTaskBlocks(c.Blocks(), p); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

// BenchmarkEvaluateTaskComposedBlocks replays the standard composed task
// predictor (PATH exit, RAS, CTTB) — the predictor sweep and serve cells
// run — over the indirect-heavy minilisp columns.
func BenchmarkEvaluateTaskComposedBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "minilisp")
	p := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	if _, err := core.EvaluateTaskBlocks(c.Blocks(), p); err != nil { // warm-up, as benchExitBlocks
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateTaskBlocks(c.Blocks(), p); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

// ---- speculative-update kernels ------------------------------------------
//
// The ...SpecBlocks benchmarks replay the block kernels in speculative-
// update mode (lag 4) with real paper predictors, so every mispredict
// drains the predictor-owned undo ring through a checkpoint repair —
// rollback-heavy by construction. Each runs the predictor's fused
// speculative step; the gap to its idealized ...Blocks twin (PATH,
// GLOBAL, PER, ideal PATH; the composed row's twin is
// BenchmarkEvaluateTaskComposedBlocks) is the speculation tax. benchdiff
// holds allocs/op at the idealized level (repair never allocates).

func BenchmarkEvaluateExitSpecBlocks(b *testing.B) {
	benchExitSpecBlocks(b, "path:d7-o5-l6-c6-f3:leh2")
}

func BenchmarkEvaluateExitSpecGlobalBlocks(b *testing.B) {
	benchExitSpecBlocks(b, "global:d7-c14-i14:leh2")
}

func BenchmarkEvaluateExitSpecPerBlocks(b *testing.B) {
	benchExitSpecBlocks(b, "per:d7-h12-t14-i14:leh2")
}

func BenchmarkEvaluateExitSpecIdealPathBlocks(b *testing.B) { benchExitSpecBlocks(b, "ipath:d7:leh2") }

// benchExitSpecBlocks is benchExitBlocks in speculative-update mode at
// lag 4, warm-up replay included.
func benchExitSpecBlocks(b *testing.B, spec string) {
	c := benchColumnarTrace(b, "exprc")
	p := engine.MustBuildExit(spec)
	if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), p, 4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), p, 4); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

func BenchmarkEvaluateTaskSpecBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "exprc")
	p := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), p, 4); err != nil { // warm-up, as benchExitBlocks
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateTaskSpecBlocks(c.Blocks(), p, 4); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

// BenchmarkColumnarEncode measures columnar encoding of an existing
// trace (the cost a trace memo pays once per step it grows by).
func BenchmarkColumnarEncode(b *testing.B) {
	tr := benchColumnarTrace(b, "exprc").Materialize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.FromTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, tr.PredictionSteps())
}

// BenchmarkColumnarDecode measures decoding an MSTC stream from memory
// back into columns (the disk-replay ingest path).
func BenchmarkColumnarDecode(b *testing.B) {
	c := benchColumnarTrace(b, "exprc")
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadColumnar(bytes.NewReader(raw), c.Graph, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStepN(b, c.PredictionSteps())
}

// ---- substrate -----------------------------------------------------------

// BenchmarkFunctionalInterp measures raw interpreter throughput on a
// trace-only run (instructions per op, ns per instruction).
func BenchmarkFunctionalInterp(b *testing.B) { benchFunctionalInterp(b, nil) }

// BenchmarkFunctionalInterpObserver is the same run with a no-op
// Observer: the per-instruction hook the timing model and the intratask
// experiment drive the interpreter through.
func BenchmarkFunctionalInterpObserver(b *testing.B) {
	benchFunctionalInterp(b, func(functional.InstrEvent) {})
}

// benchFunctionalInterp runs 50,000 compressb tasks on a fresh machine
// per op.
func benchFunctionalInterp(b *testing.B, observer func(functional.InstrEvent)) {
	w, err := workload.ByName("compressb")
	if err != nil {
		b.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	instrs := uint64(0)
	for i := 0; i < b.N; i++ {
		m := functional.NewMachine(g, functional.Config{Observer: observer})
		if _, err := m.Run(functional.Config{MaxSteps: 50000}); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats().Instrs
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkTimingSim measures the ring timing model's throughput with
// perfect inter-task prediction.
func BenchmarkTimingSim(b *testing.B) { benchTimingSim(b, "perfect") }

// BenchmarkTimingSimSpec adds the standard composed predictor under
// speculative update with an 8-cycle repair latency: the timing model's
// per-task session step, rollbacks included.
func BenchmarkTimingSimSpec(b *testing.B) {
	benchTimingSim(b, "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8")
}

// benchTimingSim runs 30,000 boolmin tasks through the ring timing model
// with spec's predictor.
func benchTimingSim(b *testing.B, spec string) {
	w, err := workload.ByName("boolmin")
	if err != nil {
		b.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := engine.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	p, err := sp.BuildTask()
	if err != nil {
		b.Fatal(err)
	}
	cfg := timing.Config{MaxSteps: 30000, SpecUpdate: sp.SpecUpdate(), SpecLag: sp.SpecLag(), RepairLatency: sp.RepairLat()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Run(g, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSLCompile measures end-to-end compilation of the largest
// workload program (lexer through codegen).
func BenchmarkMSLCompile(b *testing.B) {
	w, err := workload.ByName("exprc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := msl.Compile(w.Source, msl.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskform measures the task-forming pass.
func BenchmarkTaskform(b *testing.B) {
	w, err := workload.ByName("exprc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskform.Partition(p, taskform.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
