package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// Block-wise replay kernels over the columnar trace encoding. Each
// kernel consumes a trace.BlockSource — the in-memory cursor of a
// trace.Columnar, a trace.Reader over an on-disk stream, or the workload
// package's streaming generator — and replays one block of flat columns
// at a time: bounds checks amortize over the block, per-step task
// resolution is a dictionary index instead of a map lookup, and nothing
// beyond the current block is ever resident.
//
// These kernels are the only production replay path. They issue exactly
// the same predictor call sequence as the reference loops in eval.go, so
// both produce identical results (enforced by TestReplayEquivalence over
// every workload × spec cell). Predictors that additionally implement
// the *BlockReplayer interfaces replay whole blocks through a single
// devirtualized call, so interface dispatch is paid once per 4096 steps
// instead of twice per step.
//
// One Tally drives every mode: idealized and speculative, exit, target
// and task, block kernel and generic loop, every step is scored through
// it, and it can also record each step's outcome in a caller's
// OutcomeColumn for the ring timing model and per-task miss accounting.

// ExitBlockReplayer is implemented by exit predictors that can replay a
// whole block themselves. ReplayExitBlock must issue the same
// PredictExit/UpdateExit sequence as the generic loop and score every
// prediction step through t.Step.
type ExitBlockReplayer interface {
	ReplayExitBlock(b *trace.Block, t *Tally)
}

// TargetBlockReplayer is the block fast path for target buffers
// (Lookup/Train on indirect steps, Advance on every step); it scores
// every indirect step through t.Step.
type TargetBlockReplayer interface {
	ReplayTargetBlock(b *trace.Block, t *Tally)
}

// TaskBlockReplayer is the block fast path for full task predictors.
// ReplayTaskBlock must issue the same Predict/Update sequence as the
// generic loop and score every prediction step through t.Score.
type TaskBlockReplayer interface {
	ReplayTaskBlock(b *trace.Block, t *Tally)
}

// An OutcomeColumn records each trace step's prediction outcome in
// plain words, two bits per step: bit 2(i%32) of word i/32 is set when
// step i's prediction missed (its exit in exit mode, its target in
// target and task mode), and the bit above it when a speculative-update
// replay rolled back during step i. Steps that predict nothing — halt
// steps, and in target mode every step whose exit is not indirect —
// stay clear. The block kernels fill it; the ring timing model and
// per-task miss accounting read it.
type OutcomeColumn []uint64

// NewOutcomeColumn returns a cleared column for a trace of steps steps.
func NewOutcomeColumn(steps int) OutcomeColumn { return make(OutcomeColumn, (steps+31)/32) }

// Miss reports whether step i's prediction missed.
func (c OutcomeColumn) Miss(i int) bool { return c[i>>5]>>(uint(i&31)*2)&1 != 0 }

// Rollback reports whether a rollback happened during step i.
func (c OutcomeColumn) Rollback(i int) bool { return c[i>>5]>>(uint(i&31)*2+1)&1 != 0 }

// set sets step i's miss (bit 0) or rollback (bit 1) bit.
func (c OutcomeColumn) set(i int, bit uint) { c[i>>5] |= 1 << (uint(i&31)*2 + bit) }

// Tally is the block kernels' one scoring copy: every replayed step of
// every mode — exit, target and task, idealized and speculative — is
// scored through it, and its replay loop is the only one that pulls
// blocks from a source. It keeps the trace position so it can fill an
// optional outcome column.
type Tally struct {
	steps, misses int                             // exit and target steps
	byKind        [isa.NumControlKinds]KindMisses // task steps, by the actual exit's kind
	exitMisses    int
	col           OutcomeColumn // nil: no column
	base          int           // trace index of the block's first step
}

// Step scores step i of the block being replayed as one exit or target
// prediction; miss reports a wrong one.
func (t *Tally) Step(i int, miss bool) {
	t.steps++
	if miss {
		t.misses++
		t.mark(i, 0)
	}
}

// Score scores step i of the block being replayed as one task
// prediction whose actual exit is of the given kind: exitMiss reports a
// wrong exit, miss a wrong next-task address.
func (t *Tally) Score(i int, kind isa.ControlKind, exitMiss, miss bool) {
	km := &t.byKind[kind]
	km.Steps++
	if exitMiss {
		t.exitMisses++
	}
	if miss {
		km.Misses++
		t.mark(i, 0)
	}
}

// mark sets bit (0 miss, 1 rollback) of step i of the current block in
// the column, if there is one.
func (t *Tally) mark(i int, bit uint) {
	if t.col != nil {
		t.col.set(t.base+i, bit)
	}
}

// replay clears the column and feeds src's blocks to block, keeping the
// trace position.
func (t *Tally) replay(src trace.BlockSource, block func(*trace.Block)) error {
	clear(t.col)
	for {
		b, err := src.NextBlock()
		if err != nil || b == nil {
			return err
		}
		if t.col != nil && t.base+b.N > 32*len(t.col) {
			return fmt.Errorf("core: outcome column holds %d steps, the trace has more", 32*len(t.col))
		}
		block(b)
		t.base += b.N
	}
}

// exitResult returns the tallied exit counts.
func (t *Tally) exitResult(p ExitPredictor) ExitResult {
	return ExitResult{Name: p.Name(), Steps: t.steps, Misses: t.misses, States: p.States()}
}

// taskResult returns the tallied task counts.
func (t *Tally) taskResult(name string) TaskResult {
	res := TaskResult{Name: name, ExitMisses: t.exitMisses, ByKind: t.byKind}
	for _, km := range t.byKind {
		res.Steps += km.Steps
		res.Misses += km.Misses
	}
	return res
}

// EvaluateExitBlocks replays a block source through an exit predictor,
// scoring every prediction step. The predictor is Reset first; the call
// sequence and result match EvaluateExitUnresolved.
func EvaluateExitBlocks(src trace.BlockSource, p ExitPredictor) (ExitResult, error) {
	return EvaluateExitBlocksInto(src, p, nil)
}

// EvaluateExitBlocksInto is EvaluateExitBlocks that also records each
// step's outcome in col, which must cover the source's steps (a nil col
// records nothing). A predictor with a block kernel replays through it;
// one with only a fused step (the ideal tables) through one loop over
// that step; any other through PredictExit and UpdateExit.
func EvaluateExitBlocksInto(src trace.BlockSource, p ExitPredictor, col OutcomeColumn) (ExitResult, error) {
	p.Reset()
	t := &Tally{col: col}
	fast, isFast := p.(ExitBlockReplayer)
	kern, isKern := p.(exitKernel)
	err := t.replay(src, func(b *trace.Block) {
		switch {
		case isFast:
			fast.ReplayExitBlock(b, t)
		case isKern:
			replayExitKernelSteps(kern, b, t)
		default:
			replayExitSteps(p, b, t)
		}
	})
	if err != nil {
		return ExitResult{Name: p.Name()}, err
	}
	res := t.exitResult(p)
	recordExitResult(res)
	return res, nil
}

// EvaluateIndirectBlocks replays a block source through a target buffer:
// Lookup/Train on steps whose taken exit is indirect, Advance on every
// step (halt steps included — exactly the EvaluateIndirectUnresolved
// sequence).
func EvaluateIndirectBlocks(src trace.BlockSource, b TargetBuffer) (TargetResult, error) {
	return EvaluateIndirectBlocksInto(src, b, nil)
}

// EvaluateIndirectBlocksInto is EvaluateIndirectBlocks that also records
// each indirect step's outcome in col, which must cover the source's
// steps (a nil col records nothing).
func EvaluateIndirectBlocksInto(src trace.BlockSource, b TargetBuffer, col OutcomeColumn) (TargetResult, error) {
	b.Reset()
	t := &Tally{col: col}
	fast, isFast := b.(TargetBlockReplayer)
	err := t.replay(src, func(blk *trace.Block) {
		if isFast {
			fast.ReplayTargetBlock(blk, t)
		} else {
			replayTargetSteps(b, blk, t)
		}
	})
	if err != nil {
		return TargetResult{Name: b.Name()}, err
	}
	res := TargetResult{Name: b.Name(), Steps: t.steps, Misses: t.misses, States: b.States()}
	recordTargetResult(res)
	return res, nil
}

// EvaluateTaskBlocks replays a block source through a full task
// predictor, scoring every prediction step. The predictor is Reset
// first; the call sequence and result match EvaluateTaskUnresolved.
func EvaluateTaskBlocks(src trace.BlockSource, p TaskPredictor) (TaskResult, error) {
	return EvaluateTaskBlocksInto(src, p, nil)
}

// EvaluateTaskBlocksInto is EvaluateTaskBlocks that also records each
// step's outcome in col, which must cover the source's steps (a nil col
// records nothing).
func EvaluateTaskBlocksInto(src trace.BlockSource, p TaskPredictor, col OutcomeColumn) (TaskResult, error) {
	p.Reset()
	t := &Tally{col: col}
	fast, isFast := p.(TaskBlockReplayer)
	err := t.replay(src, func(b *trace.Block) {
		if isFast {
			fast.ReplayTaskBlock(b, t)
		} else {
			replayTaskSteps(p, b, t)
		}
	})
	if err != nil {
		return TaskResult{Name: p.Name()}, err
	}
	res := t.taskResult(p.Name())
	recordTaskResult(res)
	return res, nil
}

// replayExitSteps replays one block through p's PredictExit and
// UpdateExit, the path of exit predictors without a block kernel or a
// fused step.
func replayExitSteps(p ExitPredictor, b *trace.Block, t *Tally) {
	entries := b.Dict.Entries
	exits := b.Exits[:b.N]
	taskIdx := b.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		task := entries[taskIdx[i]].Task
		t.Step(i, p.PredictExit(task) != int(e))
		p.UpdateExit(task, int(e))
	}
}

// replayExitKernelSteps replays one block through k's fused step, the
// path of the ideal exit predictors.
func replayExitKernelSteps(k exitKernel, b *trace.Block, t *Tally) {
	entries := b.Dict.Entries
	exits := b.Exits[:b.N]
	taskIdx := b.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e != trace.HaltExit {
			t.Step(i, k.replayExitStep(&entries[taskIdx[i]], int(e)) != int(e))
		}
	}
}

// replayTargetSteps replays one block through b's Lookup, Train and
// Advance, the path of target buffers without a block kernel.
func replayTargetSteps(b TargetBuffer, blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			got, ok := b.Lookup(ent.Addr)
			t.Step(i, !ok || got != target)
			b.Train(ent.Addr, target)
		}
		b.Advance(ent.Addr)
	}
}

// replayTaskSteps replays one block through p's Predict and Update, the
// path of task predictors without a block kernel.
func replayTaskSteps(p TaskPredictor, b *trace.Block, t *Tally) {
	entries := b.Dict.Entries
	exits := b.Exits[:b.N]
	taskIdx, targetIdx := b.TaskIdx[:len(exits)], b.TargetIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		target := entries[targetIdx[i]].Addr
		pred := p.Predict(ent.Task)
		t.Score(i, ent.Kinds[e], pred.Exit >= 0 && pred.Exit != int(e), pred.Target != target)
		p.Update(ent.Task, Outcome{Exit: int(e), Target: target})
	}
}

// The kernels below implement the *BlockReplayer interfaces for the
// built-in predictors. Each replays its predictor's PredictExit/
// UpdateExit (or Lookup/Train/Advance) pair over the block's flat
// columns, with the task header fields read from the block dictionary
// instead of chased through *tfg.Task, and computes the step's table
// index, fold or key once for both the prediction and the training. An
// exit step that trains at once is one automaton transition (pht.step,
// idealPHT.step): the entry is loaded and stored once.
// The ideal exit predictors need no kernel of their own: the driver
// runs their fused step (exitKernel.replayExitStep, which the composed
// kernel calls too) in replayExitKernelSteps. The real ones and the
// target buffers inline the same body, because a call per step costs
// the real PATH kernel ~15% and a target kernel, which runs on every
// trace step, about twice its time.

// ReplayExitBlock implements ExitBlockReplayer for the real PATH
// predictor: single-exit skip, clamping and training latency included.
func (p *PathExit) ReplayExitBlock(blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		single := ent.NumExits == 1
		if p.opts.SkipSingleExit && single {
			// PredictExit returns 0; exit 0 is the only valid exit, so
			// this step cannot miss. No PHT access, as in UpdateExit.
			t.Step(i, e != 0)
		} else {
			idx := p.path.index(ent.Addr)
			var pred int
			if p.opts.TrainLatency == 0 {
				pred = p.pht.step(idx, int(e))
			} else {
				pred = p.pht.predict(idx)
				p.pendPush(idx, int(e))
			}
			t.Step(i, clampExits(pred, int(ent.NumExits)) != int(e))
		}
		if !(p.opts.SkipSingleExitHistory && single) {
			p.path.push(ent.Addr)
		}
	}
}

// ReplayExitBlock implements ExitBlockReplayer for the real GLOBAL
// predictor.
func (p *GlobalExit) ReplayExitBlock(blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		pred := p.pht.step(p.index(ent.Addr), int(e))
		t.Step(i, clampExits(pred, int(ent.NumExits)) != int(e))
		p.hist = p.hist.Push(int(e), p.depth)
	}
}

// ReplayExitBlock implements ExitBlockReplayer for the real PER
// predictor.
func (p *PerExit) ReplayExitBlock(blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		h := p.hrtIndex(ent.Addr)
		pred := p.pht.step(p.phtIndex(ent.Addr, p.hrt[h]), int(e))
		t.Step(i, clampExits(pred, int(ent.NumExits)) != int(e))
		p.hrt[h] = p.hrt[h].Push(int(e), p.depth)
	}
}

// ReplayTargetBlock implements TargetBlockReplayer for the real CTTB:
// Lookup and Train on an indirect step share one DOLC index.
func (b *CTTB) ReplayTargetBlock(blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			idx := b.path.index(ent.Addr)
			got, ok := b.lookupAt(idx)
			t.Step(i, !ok || got != target)
			b.trainAt(idx, target, nil)
		}
		b.path.push(ent.Addr)
	}
}

// ReplayTargetBlock implements TargetBlockReplayer for the ideal CTTB:
// Lookup and Train on an indirect step share one path key and one
// table probe.
func (b *IdealCTTB) ReplayTargetBlock(blk *trace.Block, t *Tally) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			idx, _ := b.entry(ent.Addr)
			slot := &b.entries[idx]
			t.Step(i, !slot.valid || slot.target != target)
			slot.train(target)
		}
		b.path.push(ent.Addr)
	}
}

// ReplayTaskBlock implements TaskBlockReplayer for the composed
// predictor: per step, one fused exit step and one fused buffer step,
// each computing its index or key once, in Predict/Update's order
// within each component (the exit table's tie-break RNG draws at the
// prediction; the RAS is read before it pushes or pops; the buffer is
// looked up, trained and advanced, in that order). A composition with a
// component that has no fused step — a DelayedUpdate wrapper, say, or a
// predictor from outside this package — replays through the generic
// Predict/Update loop instead.
func (p *HeaderPredictor) ReplayTaskBlock(blk *trace.Block, t *Tally) {
	if p.exitK == nil || (p.buf != nil && p.bufK == nil) {
		replayTaskSteps(p, blk, t)
		return
	}
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		target := entries[targetIdx[i]].Addr
		pe := p.exitK.replayExitStep(ent, int(e))
		var pred isa.Addr
		lookup := false
		switch {
		case ent.HasTarget[pe]:
			pred = ent.Targets[pe]
		case ent.Indirect[pe]:
			lookup = p.bufK != nil
		case p.ras != nil: // RETURN
			pred, _ = p.ras.Top()
		}
		if p.ras != nil {
			switch k := ent.Kinds[e]; {
			case k.IsCall():
				p.ras.Push(ent.Returns[e])
			case k == isa.KindReturn:
				p.ras.Pop()
			}
		}
		if p.bufK != nil {
			if got, _ := p.bufK.replayTargetStep(ent.Addr, lookup, ent.Indirect[e], target); lookup {
				pred = got
			}
		}
		t.Score(i, ent.Kinds[e], pe != int(e), pred != target)
	}
}
