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
// The task kernels are the only driver of a task predictor: idealized
// and speculative, fast and generic, every task step is scored through
// one TaskTally, which can also record each step's outcome in a
// caller's OutcomeColumn for the ring timing model and per-task miss
// accounting.

// ExitBlockReplayer is implemented by exit predictors that can replay a
// whole block themselves. ReplayExitBlock must issue the same
// PredictExit/UpdateExit sequence as the generic loop and return the
// prediction-step and miss counts for the block.
type ExitBlockReplayer interface {
	ReplayExitBlock(b *trace.Block) (steps, misses int)
}

// TargetBlockReplayer is the block fast path for target buffers
// (Lookup/Train on indirect steps, Advance on every step).
type TargetBlockReplayer interface {
	ReplayTargetBlock(b *trace.Block) (steps, misses int)
}

// TaskBlockReplayer is the block fast path for full task predictors.
// ReplayTaskBlock must issue the same Predict/Update sequence as the
// generic loop and score every prediction step through t.Score.
type TaskBlockReplayer interface {
	ReplayTaskBlock(b *trace.Block, t *TaskTally)
}

// EvaluateExitBlocks replays a block source through an exit predictor,
// scoring every prediction step. The predictor is Reset first; the call
// sequence and result match EvaluateExitUnresolved.
func EvaluateExitBlocks(src trace.BlockSource, p ExitPredictor) (ExitResult, error) {
	p.Reset()
	res := ExitResult{Name: p.Name()}
	steps, misses := 0, 0
	fast, isFast := p.(ExitBlockReplayer)
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		if isFast {
			s, m := fast.ReplayExitBlock(b)
			steps += s
			misses += m
			continue
		}
		entries := b.Dict.Entries
		taskIdx, exits := b.TaskIdx, b.Exits
		for i := 0; i < b.N; i++ {
			e := exits[i]
			if e == trace.HaltExit {
				continue
			}
			t := entries[taskIdx[i]].Task
			pred := p.PredictExit(t)
			steps++
			if pred != int(e) {
				misses++
			}
			p.UpdateExit(t, int(e))
		}
	}
	res.Steps, res.Misses = steps, misses
	res.States = p.States()
	recordExitResult(res)
	return res, nil
}

// EvaluateIndirectBlocks replays a block source through a target buffer:
// Lookup/Train on steps whose taken exit is indirect, Advance on every
// step (halt steps included — exactly the EvaluateIndirectUnresolved
// sequence).
func EvaluateIndirectBlocks(src trace.BlockSource, b TargetBuffer) (TargetResult, error) {
	b.Reset()
	res := TargetResult{Name: b.Name()}
	steps, misses := 0, 0
	fast, isFast := b.(TargetBlockReplayer)
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if blk == nil {
			break
		}
		if isFast {
			s, m := fast.ReplayTargetBlock(blk)
			steps += s
			misses += m
			continue
		}
		entries := blk.Dict.Entries
		taskIdx, exits, targetIdx := blk.TaskIdx, blk.Exits, blk.TargetIdx
		for i := 0; i < blk.N; i++ {
			ent := &entries[taskIdx[i]]
			if e := exits[i]; e != trace.HaltExit && ent.Indirect[e] {
				target := entries[targetIdx[i]].Addr
				steps++
				if got, ok := b.Lookup(ent.Addr); !ok || got != target {
					misses++
				}
				b.Train(ent.Addr, target)
			}
			b.Advance(ent.Addr)
		}
	}
	res.Steps, res.Misses = steps, misses
	res.States = b.States()
	recordTargetResult(res)
	return res, nil
}

// An OutcomeColumn records each trace step's task-prediction outcome in
// plain words, two bits per step: bit 2(i%32) of word i/32 is set when
// step i's predicted next-task address missed, and the bit above it when
// a speculative-update replay rolled back during step i. Halt steps
// predict nothing and stay clear. The task kernels fill it; the ring
// timing model and per-task miss accounting read it.
type OutcomeColumn []uint64

// NewOutcomeColumn returns a cleared column for a trace of steps steps.
func NewOutcomeColumn(steps int) OutcomeColumn { return make(OutcomeColumn, (steps+31)/32) }

// Miss reports whether step i's prediction missed.
func (c OutcomeColumn) Miss(i int) bool { return c[i>>5]>>(uint(i&31)*2)&1 != 0 }

// Rollback reports whether a rollback happened during step i.
func (c OutcomeColumn) Rollback(i int) bool { return c[i>>5]>>(uint(i&31)*2+1)&1 != 0 }

// set sets step i's miss (bit 0) or rollback (bit 1) bit.
func (c OutcomeColumn) set(i int, bit uint) { c[i>>5] |= 1 << (uint(i&31)*2 + bit) }

// TaskTally is the task kernels' one scoring copy: every replayed
// prediction step, on every task path, is scored through it. It keeps
// the trace position so it can fill an optional outcome column.
type TaskTally struct {
	byKind     [isa.NumControlKinds]KindMisses // sums to Steps and Misses
	exitMisses int
	col        OutcomeColumn // nil: no column
	base       int           // trace index of the block's first step
}

// Score scores step i of the block being replayed, whose actual exit is
// of the given kind: exitMiss reports a wrong exit, miss a wrong
// next-task address.
func (t *TaskTally) Score(i int, kind isa.ControlKind, exitMiss, miss bool) {
	km := &t.byKind[kind]
	km.Steps++
	if exitMiss {
		t.exitMisses++
	}
	if miss {
		km.Misses++
		if t.col != nil {
			t.col.set(t.base+i, 0)
		}
	}
}

// rolledBack marks a rollback during step i of the current block.
func (t *TaskTally) rolledBack(i int) {
	if t.col != nil {
		t.col.set(t.base+i, 1)
	}
}

// replay clears the column and feeds src's blocks to block, keeping the
// trace position.
func (t *TaskTally) replay(src trace.BlockSource, block func(*trace.Block)) error {
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

// result returns the tallied counts.
func (t *TaskTally) result(name string) TaskResult {
	res := TaskResult{Name: name, ExitMisses: t.exitMisses, ByKind: t.byKind}
	for _, km := range t.byKind {
		res.Steps += km.Steps
		res.Misses += km.Misses
	}
	return res
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
	t := TaskTally{col: col}
	fast, isFast := p.(TaskBlockReplayer)
	err := t.replay(src, func(b *trace.Block) {
		if isFast {
			fast.ReplayTaskBlock(b, &t)
		} else {
			replayTaskSteps(p, b, &t)
		}
	})
	if err != nil {
		return TaskResult{Name: p.Name()}, err
	}
	res := t.result(p.Name())
	recordTaskResult(res)
	return res, nil
}

// replayTaskSteps replays one block through p's Predict and Update, the
// path of task predictors without a block kernel.
func replayTaskSteps(p TaskPredictor, b *trace.Block, t *TaskTally) {
	entries := b.Dict.Entries
	taskIdx, exits, targetIdx := b.TaskIdx, b.Exits, b.TargetIdx
	for i := 0; i < b.N; i++ {
		e := exits[i]
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
// index, fold or key once for both the prediction and the training.
// The ideal exit kernels call the predictor's fused step
// (exitKernel.replayExitStep, which the composed kernel calls too); the
// real ones and the target buffers' inline the same body, because a
// call per step costs the real PATH kernel ~15%.

// ReplayExitBlock implements ExitBlockReplayer for the real PATH
// predictor: single-exit skip, clamping and training latency included.
func (p *PathExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		single := ent.NumExits == 1
		steps++
		if p.opts.SkipSingleExit && single {
			// PredictExit returns 0; exit 0 is the only valid exit, so
			// this step cannot miss. No PHT access, as in UpdateExit.
			if e != 0 {
				misses++
			}
		} else {
			idx := p.path.index(ent.Addr)
			if clampExits(p.pht.predict(idx), int(ent.NumExits)) != int(e) {
				misses++
			}
			if p.opts.TrainLatency == 0 {
				p.pht.update(idx, int(e), nil)
			} else {
				p.pendPush(idx, int(e))
			}
		}
		if !(p.opts.SkipSingleExitHistory && single) {
			p.path.push(ent.Addr)
		}
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the real GLOBAL
// predictor.
func (p *GlobalExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		idx := p.index(ent.Addr)
		if clampExits(p.pht.predict(idx), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.pht.update(idx, int(e), nil)
		p.hist = p.hist.Push(int(e), p.depth)
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the real PER
// predictor.
func (p *PerExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		h := p.hrtIndex(ent.Addr)
		idx := p.phtIndex(ent.Addr, p.hrt[h])
		if clampExits(p.pht.predict(idx), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.pht.update(idx, int(e), nil)
		p.hrt[h] = p.hrt[h].Push(int(e), p.depth)
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the ideal GLOBAL
// predictor.
func (p *IdealGlobal) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		steps++
		if p.replayExitStep(&entries[taskIdx[i]], int(e)) != int(e) {
			misses++
		}
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the ideal PER
// predictor.
func (p *IdealPer) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		steps++
		if p.replayExitStep(&entries[taskIdx[i]], int(e)) != int(e) {
			misses++
		}
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the ideal PATH
// predictor.
func (p *IdealPath) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		steps++
		if p.replayExitStep(&entries[taskIdx[i]], int(e)) != int(e) {
			misses++
		}
	}
	return steps, misses
}

// ReplayTargetBlock implements TargetBlockReplayer for the real CTTB:
// Lookup and Train on an indirect step share one DOLC index.
func (b *CTTB) ReplayTargetBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			steps++
			idx := b.path.index(ent.Addr)
			if got, ok := b.lookupAt(idx); !ok || got != target {
				misses++
			}
			b.trainAt(idx, target, nil)
		}
		b.path.push(ent.Addr)
	}
	return steps, misses
}

// ReplayTargetBlock implements TargetBlockReplayer for the ideal CTTB:
// Lookup and Train on an indirect step share one path key and one
// table probe.
func (b *IdealCTTB) ReplayTargetBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			steps++
			idx, _ := b.entry(ent.Addr)
			slot := &b.entries[idx]
			if !slot.valid || slot.target != target {
				misses++
			}
			slot.train(target)
		}
		b.path.push(ent.Addr)
	}
	return steps, misses
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
func (p *HeaderPredictor) ReplayTaskBlock(blk *trace.Block, t *TaskTally) {
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
