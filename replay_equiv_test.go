package multiscalar_test

// Differential tests for the block replay kernels: every Evaluate*
// result — counts, miss breakdowns, States, ByKind — must be identical
// between the block kernels (the production replay path) and the
// unresolved reference oracle, on every workload, and the kernels must
// not allocate per step.

import (
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// equivSteps keeps the five-workload differential sweep in the seconds
// range (the full traces are covered by the workload self-check tests;
// the replay loops are step-position-independent).
const equivSteps = 60000

// equivTrace returns the workload's cached columnar trace and its
// materialized array-of-structs view, the oracle's input.
func equivTrace(tb testing.TB, name string) (*trace.Columnar, *trace.Trace) {
	tb.Helper()
	c := equivColumnar(tb, name)
	return c, c.Materialize()
}

func equivColumnar(tb testing.TB, name string) *trace.Columnar {
	tb.Helper()
	c, err := workload.CachedColumnar(name, equivSteps)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

var equivExitSpecs = []string{
	"path:d7-o5-l6-c6-f3:leh2",
	"path:d2-o4-l5-c5:vc2rand:seed7",
	"path:d7-o5-l6-c6-f3:leh2:lat4",
	"global:d7-c14-i14:leh2",
	"global:d4-c8-i10:vc3rand",
	"per:d7-h12-t14-i14:leh2",
	"per:d3-h8-t8-i10:vc2mru",
	"ipath:d7:leh2",
	"ipath:d3:vc3rand",
	"iglobal:d7:leh2",
	"iper:d7:le",
}

var equivTargetSpecs = []string{
	"cttb:d7-o4-l4-c5-f3",
	"icttb:d7",
}

var equivTaskSpecs = []string{
	"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3",
	"composed:ipath:d7:leh2:ras32:icttb:d7",
	"composed:path:d7-o5-l6-c6-f3:leh2:noras",
	"composed:path:d7-o5-l6-c6-f3:leh2:ssh:lat4:ras4:icttb:d7",
	"composed:path:d7-o5-l6-c6-f3:leh2:dlat4:ras32:cttb:d7-o4-l4-c5-f3", // no fused exit step: generic loop
	"composed:global:d7-c14-i14:leh2:ras16:cttb:d5-o3-l6-c4-f2",
	"composed:iglobal:d4:vc2mru:ras8:icttb:d3",
	"composed:iper:d5:vc2rand:ras8:cttb:d3-o4-l4-c4-f1",
	"cttb:d7-o4-l4-c5-f3",
}

func TestReplayEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, tr := equivTrace(t, name)
			for _, spec := range equivExitSpecs {
				oracle := core.EvaluateExitUnresolved(tr, engine.MustBuildExit(spec))
				blocks, err := core.EvaluateExitBlocks(c.Blocks(), engine.MustBuildExit(spec))
				if err != nil {
					t.Fatalf("exit %s: block replay: %v", spec, err)
				}
				if !reflect.DeepEqual(oracle, blocks) {
					t.Errorf("exit %s: oracle %+v != blocks %+v", spec, oracle, blocks)
				}
			}
			for _, spec := range equivTargetSpecs {
				oracle := core.EvaluateIndirectUnresolved(tr, engine.MustBuildTarget(spec))
				blocks, err := core.EvaluateIndirectBlocks(c.Blocks(), engine.MustBuildTarget(spec))
				if err != nil {
					t.Fatalf("target %s: block replay: %v", spec, err)
				}
				if !reflect.DeepEqual(oracle, blocks) {
					t.Errorf("target %s: oracle %+v != blocks %+v", spec, oracle, blocks)
				}
			}
			for _, spec := range equivTaskSpecs {
				oracle := core.EvaluateTaskUnresolved(tr, engine.MustBuild(spec))
				blocks, err := core.EvaluateTaskBlocks(c.Blocks(), engine.MustBuild(spec))
				if err != nil {
					t.Fatalf("task %s: block replay: %v", spec, err)
				}
				if !reflect.DeepEqual(oracle, blocks) {
					t.Errorf("task %s: oracle %+v != blocks %+v", spec, oracle, blocks)
				}
			}
			// A generated-on-the-fly stream must replay identically to the
			// cached columns (same steps, same blocks, never materialized).
			src, err := workload.StreamBlocks(name, equivSteps, 1)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := core.EvaluateExitBlocks(src, engine.MustBuildExit(equivExitSpecs[0]))
			if err != nil {
				t.Fatalf("stream replay: %v", err)
			}
			cached, err := core.EvaluateExitBlocks(c.Blocks(), engine.MustBuildExit(equivExitSpecs[0]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, cached) {
				t.Errorf("streamed %+v != cached columnar %+v", streamed, cached)
			}
		})
	}
}

// ---- allocation contract -------------------------------------------------

// probeExit is a minimal ExitPredictor: the cheapest real interface
// implementation possible, so replay-loop measurements and allocation
// assertions see the loop itself rather than predictor internals.
type probeExit struct{ n int }

func (p *probeExit) Name() string                     { return "probe-exit" }
func (p *probeExit) PredictExit(t *tfg.Task) int      { p.n++; return 0 }
func (p *probeExit) UpdateExit(t *tfg.Task, exit int) {}
func (p *probeExit) Reset()                           { p.n = 0 }
func (p *probeExit) States() int                      { return p.n }

// probeTask is the TaskPredictor analog of probeExit (a last-target
// predictor, so comparisons still exercise both miss branches).
type probeTask struct{ last isa.Addr }

func (p *probeTask) Name() string { return "probe-task" }
func (p *probeTask) Predict(t *tfg.Task) core.Prediction {
	return core.Prediction{Exit: 0, Target: p.last}
}
func (p *probeTask) Update(t *tfg.Task, o core.Outcome) { p.last = o.Target }
func (p *probeTask) Reset()                             { p.last = 0 }

// probeBuf is the TargetBuffer analog: a one-entry last-target buffer.
type probeBuf struct {
	target isa.Addr
	n      int
}

func (b *probeBuf) Name() string                         { return "probe-buf" }
func (b *probeBuf) Lookup(cur isa.Addr) (isa.Addr, bool) { return b.target, b.target != 0 }
func (b *probeBuf) Train(cur isa.Addr, actual isa.Addr)  { b.target = actual; b.n++ }
func (b *probeBuf) Advance(cur isa.Addr)                 {}
func (b *probeBuf) Reset()                               { b.target, b.n = 0, 0 }
func (b *probeBuf) States() int                          { return b.n }

// The probes also implement the core.*BlockReplayer fast paths, issuing
// the same logical call sequence inline. Benchmarks use them to measure
// the one-interface-call-per-block floor; the equivalence tests above
// pin the real predictors' fast paths against the oracle, and these
// probe implementations are covered by TestBlockReplayAllocationFree.

func (p *probeExit) ReplayExitBlock(blk *trace.Block, t *core.Tally) {
	for i := 0; i < blk.N; i++ {
		e := blk.Exits[i]
		if e == trace.HaltExit {
			continue
		}
		p.n++             // PredictExit side effect
		t.Step(i, e != 0) // probe always predicts exit 0
	}
}

func (b *probeBuf) ReplayTargetBlock(blk *trace.Block, t *core.Tally) {
	entries := blk.Dict.Entries
	n := blk.N
	taskIdx, exits, targetIdx := blk.TaskIdx[:n], blk.Exits[:n], blk.TargetIdx[:n]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		// e&3 lets the compiler drop the Indirect bounds check; encoded
		// non-halt exits are already validated < NumExits <= MaxExits.
		if e != trace.HaltExit && ent.Indirect[e&3] {
			target := entries[targetIdx[i]].Addr
			t.Step(i, b.target == 0 || b.target != target)
			b.target = target
			b.n++
		}
		// Advance is a no-op for the probe.
	}
}

func (p *probeTask) ReplayTaskBlock(blk *trace.Block, t *core.Tally) {
	entries := blk.Dict.Entries
	for i := 0; i < blk.N; i++ {
		e := blk.Exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[blk.TaskIdx[i]]
		target := entries[blk.TargetIdx[i]].Addr
		t.Score(i, ent.Kinds[e], e != 0, p.last != target) // probe always predicts exit 0
		p.last = target
	}
}

// TestBlockReplayAllocationFree pins the kernels' allocation contract:
// replaying N steps costs a constant few allocations (the cursor and the
// tally a block kernel scores through) — never per-step or per-block
// ones, and none for filling a caller's outcome column.
func TestBlockReplayAllocationFree(t *testing.T) {
	c := equivColumnar(t, "exprc")
	col := core.NewOutcomeColumn(c.Len())
	arms := []struct {
		name string
		col  core.OutcomeColumn
	}{{"no column", nil}, {"column", col}}

	ep, bp := &probeExit{}, &probeBuf{}
	for _, arm := range arms {
		if allocs := testing.AllocsPerRun(3, func() { core.EvaluateExitBlocksInto(c.Blocks(), ep, arm.col) }); allocs > 2 {
			t.Errorf("EvaluateExitBlocksInto(%s): %.1f allocs per %d-step replay, want <= 2 (cursor + tally)", arm.name, allocs, c.Len())
		}
		if allocs := testing.AllocsPerRun(3, func() { core.EvaluateIndirectBlocksInto(c.Blocks(), bp, arm.col) }); allocs > 2 {
			t.Errorf("EvaluateIndirectBlocksInto(%s): %.1f allocs per %d-step replay, want <= 2 (cursor + tally)", arm.name, allocs, c.Len())
		}
	}

	// The real table-backed predictors replay through their own block
	// kernels over flat packed PHTs, the ideal exit tables through the
	// driver's fused-step loop (warmed first, so their tables have
	// grown): a handful of allocations per replay, none per step.
	for _, spec := range []string{
		"path:d7-o5-l6-c6-f3:leh2",
		"global:d7-c14-i14:leh2",
		"per:d7-h12-t14-i14:leh2",
		"ipath:d7:leh2",
	} {
		p := engine.MustBuildExit(spec)
		if _, err := core.EvaluateExitBlocks(c.Blocks(), p); err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			if allocs := testing.AllocsPerRun(3, func() { core.EvaluateExitBlocksInto(c.Blocks(), p, arm.col) }); allocs > 8 {
				t.Errorf("EvaluateExitBlocksInto(%s, %s): %.1f allocs per %d-step replay, want <= 8", spec, arm.name, allocs, c.Len())
			}
		}
	}
	for _, spec := range []string{"cttb:d7-o4-l4-c5-f3", "icttb:d7"} {
		b := engine.MustBuildTarget(spec)
		if _, err := core.EvaluateIndirectBlocks(c.Blocks(), b); err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			if allocs := testing.AllocsPerRun(3, func() { core.EvaluateIndirectBlocksInto(c.Blocks(), b, arm.col) }); allocs > 8 {
				t.Errorf("EvaluateIndirectBlocksInto(%s, %s): %.1f allocs per %d-step replay, want <= 8", spec, arm.name, allocs, c.Len())
			}
		}
	}

	tp := &probeTask{}
	if _, err := core.EvaluateTaskBlocks(c.Blocks(), tp); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() { core.EvaluateTaskBlocks(c.Blocks(), tp) }); allocs > 2 {
		t.Errorf("EvaluateTaskBlocks: %.1f allocs per %d-step replay, want <= 2 (cursor + tally)", allocs, c.Len())
	}

	// The composed predictor's block kernel, with and without a column
	// (warmed first, so its tables have grown): the cursor and the tally;
	// RAS.Reset clears its rings in place.
	composed := engine.MustBuild("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	for _, arm := range arms {
		if _, err := core.EvaluateTaskBlocksInto(c.Blocks(), composed, arm.col); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() { core.EvaluateTaskBlocksInto(c.Blocks(), composed, arm.col) })
		if allocs > 2 {
			t.Errorf("EvaluateTaskBlocksInto(composed, %s): %.1f allocs per %d-step replay, want <= 2 (cursor + tally)", arm.name, allocs, c.Len())
		}
	}
}
