package core

import (
	"reflect"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Synthetic TFG fixtures: tasks are built directly, without the compiler,
// so these tests isolate predictor behaviour.

// mkTask builds a task with the given exits.
func mkTask(start isa.Addr, exits ...tfg.ExitSpec) *tfg.Task {
	return &tfg.Task{Start: start, Blocks: []isa.Addr{start}, Exits: exits,
		ExitIndex: map[tfg.ExitRef]int{}}
}

// branchSpec is a BRANCH exit with a known target.
func branchSpec(target isa.Addr) tfg.ExitSpec {
	return tfg.ExitSpec{Kind: isa.KindBranch, Target: target, HasTarget: true}
}

// synthGraph builds a loop TFG:
//
//	A -(0)-> B -(0)-> A   (the common path)
//	A -(1)-> C -(0)-> A   (taken every 4th iteration)
//
// plus call/return tasks:
//
//	B also reaches D by CALL exit 1 every 8th visit; D RETURNs to B's
//	return point E; E branches back to A.
func synthGraph() (*tfg.Graph, *trace.Trace) {
	const (
		A = isa.Addr(10)
		B = isa.Addr(20)
		C = isa.Addr(30)
		D = isa.Addr(40)
		E = isa.Addr(25)
	)
	g := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{
		A: mkTask(A, branchSpec(B), branchSpec(C)),
		B: mkTask(B, branchSpec(A),
			tfg.ExitSpec{Kind: isa.KindCall, Target: D, HasTarget: true, Return: E}),
		C: mkTask(C, branchSpec(A)),
		D: mkTask(D, tfg.ExitSpec{Kind: isa.KindReturn}),
		E: mkTask(E, branchSpec(A)),
	}}
	g.Finalize()

	tr := &trace.Trace{Graph: g}
	step := func(task isa.Addr, exit int, target isa.Addr) {
		tr.Steps = append(tr.Steps, trace.Step{Task: task, Exit: int8(exit), Target: target})
	}
	for i := 0; i < 400; i++ {
		if i%4 == 3 {
			step(A, 1, C)
			step(C, 0, A)
			continue
		}
		step(A, 0, B)
		if i%8 == 1 {
			step(B, 1, D)
			step(D, 0, E)
			step(E, 0, A)
		} else {
			step(B, 0, A)
		}
	}
	return g, tr
}

// The eval* helpers replay a trace through the block kernels — the
// production replay path — and hold every result to the unresolved
// oracle, so each predictor test here is also a differential test.

func columnar(t testing.TB, tr *trace.Trace) *trace.Columnar {
	t.Helper()
	c, err := trace.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func evalExit(t testing.TB, tr *trace.Trace, p ExitPredictor) ExitResult {
	t.Helper()
	got, err := EvaluateExitBlocks(columnar(t, tr).Blocks(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := EvaluateExitUnresolved(tr, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: blocks %+v != oracle %+v", p.Name(), got, want)
	}
	return got
}

func evalTask(t testing.TB, tr *trace.Trace, p TaskPredictor) TaskResult {
	t.Helper()
	got, err := EvaluateTaskBlocks(columnar(t, tr).Blocks(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := EvaluateTaskUnresolved(tr, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: blocks %+v != oracle %+v", p.Name(), got, want)
	}
	return got
}

func evalExitSpec(t testing.TB, tr *trace.Trace, p ExitPredictor, lag int) ExitResult {
	t.Helper()
	got, err := EvaluateExitSpecBlocks(columnar(t, tr).Blocks(), p, lag)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateExitSpecUnresolved(tr, p, lag)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s lag %d: blocks %+v != oracle %+v (%v)", p.Name(), lag, got, want, err)
	}
	return got
}

func evalTaskSpec(t testing.TB, tr *trace.Trace, p TaskPredictor, lag int) TaskResult {
	t.Helper()
	got, err := EvaluateTaskSpecBlocks(columnar(t, tr).Blocks(), p, lag)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateTaskSpecUnresolved(tr, p, lag)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s lag %d: blocks %+v != oracle %+v (%v)", p.Name(), lag, got, want, err)
	}
	return got
}

func TestIdealPredictorsLearnPeriodicPattern(t *testing.T) {
	_, tr := synthGraph()
	for _, p := range []ExitPredictor{
		NewIdealGlobal(4, LEH2),
		NewIdealPer(4, LEH2),
		NewIdealPath(4, LEH2),
	} {
		res := evalExit(t, tr, p)
		// The pattern is fully periodic with period ≤ 8 task steps; depth
		// 4 captures it up to warm-up misses.
		if res.MissRate() > 0.12 {
			t.Errorf("%s: miss rate %.2f%% too high for a periodic pattern",
				p.Name(), 100*res.MissRate())
		}
	}
}

func TestIdealDepthZeroEqualsPerTaskAutomaton(t *testing.T) {
	_, tr := synthGraph()
	g := evalExit(t, tr, NewIdealGlobal(0, LEH2))
	p := evalExit(t, tr, NewIdealPer(0, LEH2))
	pa := evalExit(t, tr, NewIdealPath(0, LEH2))
	if g.Misses != p.Misses || p.Misses != pa.Misses {
		t.Fatalf("depth-0 schemes must coincide: %d %d %d", g.Misses, p.Misses, pa.Misses)
	}
	if g.States != 5 {
		t.Fatalf("depth-0 states = %d, want one automaton per static task (5)", g.States)
	}
}

func TestRealPathMatchesIdealOnTinyGraph(t *testing.T) {
	_, tr := synthGraph()
	// With only 5 tasks and a 14-bit index there is no aliasing, so real
	// must equal ideal at equal depth (with full low-order address bits).
	real := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{})
	ideal := NewIdealPath(4, LEH2)
	r1 := evalExit(t, tr, real)
	r2 := evalExit(t, tr, ideal)
	if r1.Misses != r2.Misses {
		t.Fatalf("alias-free real (%d misses) must match ideal (%d misses)", r1.Misses, r2.Misses)
	}
}

func TestSingleExitOptimizationSkipsPHT(t *testing.T) {
	_, tr := synthGraph()
	with := MustPathExit(MustDOLC(2, 5, 5, 5, 1), LEH2, PathExitOptions{SkipSingleExit: true})
	res := evalExit(t, tr, with)
	// C, D and E are single-exit: they must never touch the PHT, and are
	// always predicted correctly.
	without := MustPathExit(MustDOLC(2, 5, 5, 5, 1), LEH2, PathExitOptions{})
	res2 := evalExit(t, tr, without)
	if res.States >= res2.States {
		t.Fatalf("optimization should touch fewer PHT entries: %d vs %d", res.States, res2.States)
	}
}

func TestHeaderPredictorFullPipeline(t *testing.T) {
	_, tr := synthGraph()
	pred := NewHeaderPredictor("t",
		MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true}),
		NewRAS(8), MustCTTB(MustDOLC(2, 4, 4, 4, 1)))
	res := evalTask(t, tr, pred)
	if res.Steps != tr.PredictionSteps() {
		t.Fatalf("scored %d steps", res.Steps)
	}
	// Returns must be near-perfect thanks to the RAS (single call site).
	if km := res.ByKind[isa.KindReturn]; km.Misses > 1 {
		t.Errorf("RAS missed %d of %d returns", km.Misses, km.Steps)
	}
	// The pattern is periodic but not fully depth-4-identifiable (two
	// phases share the path context [B,A,B,A]); the composed predictor
	// still has to do far better than the ~25% a static choice achieves.
	if res.MissRate() > 0.18 {
		t.Errorf("composed miss rate %.2f%% too high", 100*res.MissRate())
	}
}

func TestHeaderPredictorWithoutRASMissesReturns(t *testing.T) {
	_, tr := synthGraph()
	pred := NewHeaderPredictor("no-ras",
		MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}),
		nil, nil)
	res := evalTask(t, tr, pred)
	km := res.ByKind[isa.KindReturn]
	if km.Steps == 0 || km.Misses != km.Steps {
		t.Fatalf("without a RAS every return must miss: %d/%d", km.Misses, km.Steps)
	}
}

func TestCTTBOnlyPredictorLearnsButLagsHeader(t *testing.T) {
	_, tr := synthGraph()
	only := NewCTTBOnly(MustCTTB(MustDOLC(4, 4, 5, 5, 1)))
	head := NewHeaderPredictor("h",
		MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true}),
		NewRAS(8), MustCTTB(MustDOLC(2, 4, 4, 4, 1)))
	results := []TaskResult{evalTask(t, tr, only), evalTask(t, tr, head)}
	if results[0].MissRate() < results[1].MissRate() {
		t.Fatalf("CTTB-only (%.2f%%) should not beat the header predictor (%.2f%%)",
			100*results[0].MissRate(), 100*results[1].MissRate())
	}
	// But it must still learn the periodic pattern to well under chance.
	if results[0].MissRate() > 0.5 {
		t.Fatalf("CTTB-only failed to learn: %.2f%%", 100*results[0].MissRate())
	}
}

func TestEvaluateDeterminism(t *testing.T) {
	_, tr := synthGraph()
	mk := func() ExitPredictor {
		return MustPathExit(MustDOLC(3, 5, 5, 5, 1), VC2Random, PathExitOptions{Seed: 7})
	}
	a := evalExit(t, tr, mk())
	b := evalExit(t, tr, mk())
	if a.Misses != b.Misses || a.States != b.States {
		t.Fatalf("evaluation must be deterministic: %+v vs %+v", a, b)
	}
}

func TestClampExit(t *testing.T) {
	two := mkTask(1, branchSpec(2), branchSpec(3))
	if clampExit(3, two) != 1 || clampExit(-1, two) != 0 || clampExit(1, two) != 1 {
		t.Fatalf("clampExit misbehaves")
	}
	zero := mkTask(1)
	if clampExit(2, zero) != 0 {
		t.Fatalf("clampExit on exit-less task")
	}
}

func TestResetRestoresInitialBehaviour(t *testing.T) {
	_, tr := synthGraph()
	p := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{})
	first := evalExit(t, tr, p)
	second := evalExit(t, tr, p) // replay resets internally
	if first.Misses != second.Misses {
		t.Fatalf("reset predictor should replay identically: %d vs %d", first.Misses, second.Misses)
	}
	for _, ip := range []ExitPredictor{NewIdealGlobal(3, LEH2), NewIdealPer(3, LEH2), NewIdealPath(3, LEH2)} {
		a := evalExit(t, tr, ip)
		b := evalExit(t, tr, ip)
		if a.Misses != b.Misses {
			t.Fatalf("%s: reset not clean: %d vs %d", ip.Name(), a.Misses, b.Misses)
		}
	}
}
