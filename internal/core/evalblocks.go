package core

import (
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
// ByKind accounting accumulates into the caller's fixed array.
type TaskBlockReplayer interface {
	ReplayTaskBlock(b *trace.Block, byKind *[isa.NumControlKinds]KindMisses) (steps, exitMisses, misses int)
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

// EvaluateTaskBlocks replays a block source through a full task
// predictor. The per-kind accounting accumulates into a fixed
// ControlKind-indexed array that becomes the result map once, at the
// end: no map operations and no allocations per step.
func EvaluateTaskBlocks(src trace.BlockSource, p TaskPredictor) (TaskResult, error) {
	p.Reset()
	res := TaskResult{Name: p.Name()}
	var byKind [isa.NumControlKinds]KindMisses
	steps, exitMisses, misses := 0, 0, 0
	fast, isFast := p.(TaskBlockReplayer)
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		if isFast {
			s, em, m := fast.ReplayTaskBlock(b, &byKind)
			steps += s
			exitMisses += em
			misses += m
			continue
		}
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
			steps++
			km := &byKind[ent.Kinds[e]]
			km.Steps++
			if pred.Exit >= 0 && pred.Exit != int(e) {
				exitMisses++
			}
			if pred.Target != target {
				misses++
				km.Misses++
			}
			p.Update(ent.Task, Outcome{Exit: int(e), Target: target})
		}
	}
	res.Steps, res.ExitMisses, res.Misses = steps, exitMisses, misses
	res.ByKind = make(map[isa.ControlKind]KindMisses)
	for k := range byKind {
		if byKind[k].Steps > 0 {
			res.ByKind[isa.ControlKind(k)] = byKind[k]
		}
	}
	recordTaskResult(res)
	return res, nil
}

// The kernels below implement ExitBlockReplayer / TargetBlockReplayer
// for the built-in predictors. Each inlines its PredictExit/UpdateExit
// (or Lookup/Train/Advance) pair over the block's flat columns, with the
// task header fields read from the block dictionary instead of chased
// through *tfg.Task, and computes the step's table index, fold or key
// once for both the prediction and the training.

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
// predictor: one map lookup per step.
func (p *IdealGlobal) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		idx, pred := p.table.predict(exitKey{addr: ent.Addr, hist: p.hist})
		if clampExits(pred, int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.train(idx, int(e), nil)
		p.hist = p.hist.Push(int(e), p.depth)
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the ideal PER
// predictor: one history read, one table lookup and one history write
// per step.
func (p *IdealPer) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		h := p.hists[ent.Addr]
		idx, pred := p.table.predict(exitKey{addr: ent.Addr, hist: h})
		if clampExits(pred, int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.train(idx, int(e), nil)
		p.hists[ent.Addr] = h.Push(int(e), p.depth)
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the ideal PATH
// predictor: one path key and one map lookup per step.
func (p *IdealPath) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx := blk.TaskIdx[:len(exits)]
	for i, e := range exits {
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		idx, pred := p.table.predict(MakePathKey(&p.hist, ent.Addr, p.depth))
		if clampExits(pred, int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.train(idx, int(e), nil)
		p.hist.Push(ent.Addr)
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
// Lookup and Train on an indirect step share one path key.
func (b *IdealCTTB) ReplayTargetBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	exits := blk.Exits[:blk.N]
	taskIdx, targetIdx := blk.TaskIdx[:len(exits)], blk.TargetIdx[:len(exits)]
	for i, e := range exits {
		ent := &entries[taskIdx[i]]
		if e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[i]].Addr
			steps++
			idx, _ := b.entries.lookup(MakePathKey(&b.hist, ent.Addr, b.depth), ttbEntry{})
			slot := &b.entries.slots[idx]
			if !slot.valid || slot.target != target {
				misses++
			}
			slot.train(target)
		}
		b.hist.Push(ent.Addr)
	}
	return steps, misses
}
