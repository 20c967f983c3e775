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
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.TraceN(steps)
	if err != nil {
		b.Fatal(err)
	}
	return tr
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

// ---- replay loops (the sweep substrate's hot path) -----------------------
//
// BenchmarkEvaluate{Exit,Indirect,Task} isolate the replay loop itself:
// the predictor is a minimal probe, so ns/op measures the per-step loop
// machinery (map lookups, exit decoding, ByKind accounting) that the
// resolved fast path eliminates. The ...Unresolved twins run the
// reference path over the same trace, so the fast-path speedup is the
// ratio of each pair. The Composed/Path variants replay a real paper
// predictor for end-to-end numbers. All of these feed the benchdiff
// regression gate (scripts/benchdiff, BENCH_baseline.json).

const benchReplaySteps = 120000

// benchResolvedTrace returns the shared truncated trace and its resolved
// sidecar (workload.CachedTrace memoizes both process-wide).
func benchResolvedTrace(b *testing.B, name string) (*trace.Trace, *trace.Resolved) {
	b.Helper()
	tr, err := workload.CachedTrace(name, benchReplaySteps)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := tr.Resolved()
	if err != nil {
		b.Fatal(err)
	}
	return tr, rt
}

// reportPerStep converts whole-replay ns/op into ns/step.
func reportPerStep(b *testing.B, tr *trace.Trace) {
	reportPerStepN(b, tr.PredictionSteps())
}

func reportPerStepN(b *testing.B, predSteps int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(predSteps)), "ns/step")
}

func BenchmarkEvaluateExit(b *testing.B) {
	tr, rt := benchResolvedTrace(b, "exprc")
	p := &probeExit{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateExitResolved(rt, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateExitUnresolved(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "exprc")
	p := &probeExit{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateExitUnresolved(tr, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateExitPath(b *testing.B) {
	tr, rt := benchResolvedTrace(b, "exprc")
	p := engine.MustBuildExit("path:d7-o5-l6-c6-f3:leh2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateExitResolved(rt, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateExitPathUnresolved(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "exprc")
	p := engine.MustBuildExit("path:d7-o5-l6-c6-f3:leh2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateExitUnresolved(tr, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateIndirect(b *testing.B) {
	tr, rt := benchResolvedTrace(b, "minilisp")
	buf := &probeBuf{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateIndirectResolved(rt, buf)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateIndirectUnresolved(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "minilisp")
	buf := &probeBuf{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateIndirectUnresolved(tr, buf)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateTask(b *testing.B) {
	tr, rt := benchResolvedTrace(b, "exprc")
	p := &probeTask{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateTaskResolved(rt, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateTaskUnresolved(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "exprc")
	p := &probeTask{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateTaskUnresolved(tr, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateTaskComposed(b *testing.B) {
	tr, rt := benchResolvedTrace(b, "minilisp")
	p := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateTaskResolved(rt, p)
	}
	reportPerStep(b, tr)
}

func BenchmarkEvaluateTaskComposedUnresolved(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "minilisp")
	p := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EvaluateTaskUnresolved(tr, p)
	}
	reportPerStep(b, tr)
}

// ---- block kernels (columnar replay) -------------------------------------
//
// The ...Blocks benchmarks replay the same workloads through the
// block-wise kernels over the columnar encoding. With the probes' block
// fast paths, interface dispatch costs one call per 4096-step block
// instead of two per step — the floor the resolved path could not cross.
// BenchmarkEvaluateExitPathBlocks replays the real PATH predictor
// through its inlined ReplayExitBlock for the end-to-end number.

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

// ---- speculative-update kernels ------------------------------------------
//
// The ...SpecBlocks benchmarks replay the block kernels in speculative-
// update mode (lag 4) with real paper predictors, so every mispredict
// drains the predictor-owned undo ring through a checkpoint repair —
// rollback-heavy by construction. The gap to the idealized
// BenchmarkEvaluateExitPathBlocks twin is the speculation tax; benchdiff
// holds allocs/op at the idealized level (repair never allocates).

func BenchmarkEvaluateExitSpecBlocks(b *testing.B) {
	c := benchColumnarTrace(b, "exprc")
	p := engine.MustBuildExit("path:d7-o5-l6-c6-f3:leh2")
	if _, err := core.EvaluateExitSpecBlocks(c.Blocks(), p, 4); err != nil { // warm-up, as benchExitBlocks
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
// trace (the cost a cache miss pays once per (workload, cap) pair).
func BenchmarkColumnarEncode(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "exprc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.FromTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStep(b, tr)
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

// BenchmarkTraceResolve measures the one-time sidecar construction cost
// that the fast path amortizes over every replay of a trace.
func BenchmarkTraceResolve(b *testing.B) {
	tr, _ := benchResolvedTrace(b, "exprc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebind the steps to a fresh Trace so each iteration resolves
		// (Resolved memoizes per trace).
		fresh := &trace.Trace{Graph: tr.Graph, Steps: tr.Steps}
		if _, err := fresh.Resolved(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerStep(b, tr)
}

// ---- substrate -----------------------------------------------------------

// BenchmarkFunctionalInterp measures raw interpreter throughput
// (instructions per op).
func BenchmarkFunctionalInterp(b *testing.B) {
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
		m := functional.NewMachine(g, functional.Config{})
		if _, err := m.Run(functional.Config{MaxSteps: 50000}); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats().Instrs
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkTimingSim measures the ring timing model's throughput.
func BenchmarkTimingSim(b *testing.B) {
	w, err := workload.ByName("boolmin")
	if err != nil {
		b.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Run(g, nil, timing.Config{MaxSteps: 30000}); err != nil {
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
