package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
)

// TargetBuffer is the interface shared by the task target buffer variants
// (§5.3): a cache of predicted next-task addresses.
//
// The driver contract per dynamic task step is:
//
//	target, ok := b.Lookup(t.Start)   // optional, when a prediction is needed
//	b.Train(t.Start, actualTarget)    // when this step should train the buffer
//	b.Advance(t.Start)                // always, after the step completes
//
// Lookup and Train use the buffer's internal path history as it stood
// before Advance, i.e. the same index is computed for both.
type TargetBuffer interface {
	// Name identifies the buffer configuration in reports.
	Name() string
	// Lookup predicts the next-task address for the current task; ok is
	// false on a miss (no valid entry).
	Lookup(current isa.Addr) (target isa.Addr, ok bool)
	// Train records the actual next-task address for the current context.
	Train(current isa.Addr, actual isa.Addr)
	// Advance shifts the completed task into the buffer's path history.
	Advance(current isa.Addr)
	// Reset returns the buffer to its initial state.
	Reset()
	// States returns the number of distinct entries/contexts touched.
	States() int
}

// ttbEntry is one target buffer entry: a target address with an LEH-style
// 2-bit hysteresis counter (the entry's target is replaced only when the
// counter has decayed to zero and the entry misses again).
type ttbEntry struct {
	target isa.Addr
	ctr    int8
	valid  bool
}

func (e *ttbEntry) train(actual isa.Addr) {
	const max = 3
	if !e.valid {
		e.target = actual
		e.ctr = 1
		e.valid = true
		return
	}
	if e.target == actual {
		if e.ctr < max {
			e.ctr++
		}
		return
	}
	if e.ctr == 0 {
		e.target = actual
		e.ctr = 1
		return
	}
	e.ctr--
}

// CTTB is the real Correlated Task Target Buffer: a direct-mapped table
// of target entries indexed by the same DOLC fold of path history and
// current task address as the path-based exit predictor (§5.3). With
// Depth=0 the index degenerates to current-task bits only, which is
// exactly the naive TTB the paper shows to perform poorly.
type CTTB struct {
	name string
	dolc DOLC

	path    dolcPath
	entries []ttbEntry
	touched int
	undoLog
}

// NewCTTB builds a correlated task target buffer with the given index
// configuration.
func NewCTTB(d DOLC) (*CTTB, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("CTTB(%v)", d)
	if d.Depth == 0 {
		name = fmt.Sprintf("TTB(%v)", d)
	}
	return &CTTB{name: name, dolc: d, path: newDOLCPath(d), entries: make([]ttbEntry, d.TableSize())}, nil
}

// MustCTTB is NewCTTB for statically-known configurations. It panics iff
// the configuration fails validation (see the panic contract on
// MustDOLC); runtime-provided configurations must use NewCTTB.
func MustCTTB(d DOLC) *CTTB {
	b, err := NewCTTB(d)
	if err != nil {
		panic(err)
	}
	return b
}

// NewTTB builds the uncorrelated baseline: a target buffer indexed only
// by low-order bits of the current task address.
func NewTTB(indexBits int) *CTTB {
	return MustCTTB(DOLC{Depth: 0, Current: indexBits, Folds: 1})
}

// Name implements TargetBuffer.
func (b *CTTB) Name() string { return b.name }

// DOLC returns the buffer's index configuration.
func (b *CTTB) DOLC() DOLC { return b.dolc }

// SizeBytes returns the buffer storage, counting 4 bytes per entry as the
// paper does ("a CTTB entry is 8 times as large as an exit prediction
// table entry": 32 bits vs 4 bits).
func (b *CTTB) SizeBytes() int { return b.dolc.TableSize() * 4 }

// States implements TargetBuffer.
func (b *CTTB) States() int { return b.touched }

// Reset implements TargetBuffer.
func (b *CTTB) Reset() {
	b.path.reset()
	clear(b.entries)
	b.touched = 0
	b.undo.reset()
}

// Lookup implements TargetBuffer.
func (b *CTTB) Lookup(current isa.Addr) (isa.Addr, bool) {
	return b.lookupAt(b.path.index(current))
}

func (b *CTTB) lookupAt(idx uint32) (isa.Addr, bool) {
	e := &b.entries[idx]
	if !e.valid {
		if obs.On() {
			obsCTTBMisses.Inc()
		}
		return 0, false
	}
	if obs.On() {
		obsCTTBHits.Inc()
	}
	return e.target, true
}

// Train implements TargetBuffer.
func (b *CTTB) Train(current isa.Addr, actual isa.Addr) {
	b.trainAt(b.path.index(current), actual, nil)
}

// trainAt is the index→train helper: entry idx learns actual, its
// prior state logged when log is non-nil.
func (b *CTTB) trainAt(idx uint32, actual isa.Addr, log *undoRing) {
	e := &b.entries[idx]
	if log != nil {
		log.push(ttbUndo(undoTTBEntry, idx, e))
	}
	if !e.valid {
		b.touched++
	} else if e.target != actual && obs.On() {
		// A valid entry trained toward a different target: either true
		// destructive aliasing (another context folded to this index) or
		// an unstable target — both are the conflicts the paper's DOLC
		// folding study is about.
		obsCTTBAliases.Inc()
	}
	e.train(actual)
}

// Advance implements TargetBuffer.
func (b *CTTB) Advance(current isa.Addr) { b.path.push(current) }

// replayTargetStep implements targetKernel: Lookup and Train share one
// DOLC index.
func (b *CTTB) replayTargetStep(current isa.Addr, lookup, train bool, actual isa.Addr) (target isa.Addr, hit bool) {
	if lookup || train {
		idx := b.path.index(current)
		if lookup {
			target, hit = b.lookupAt(idx)
		}
		if train {
			b.trainAt(idx, actual, nil)
		}
	}
	b.path.push(current)
	return target, hit
}

// specStepTarget implements targetKernel: Lookup and a logged Train
// share one DOLC index, which the frame keeps for the catch-up.
func (b *CTTB) specStepTarget(current isa.Addr, lookup, train, keep bool, target isa.Addr, f *specFrame) isa.Addr {
	if keep {
		b.undo.reserve()
		idx := b.path.index(current)
		if lookup {
			target, _ = b.lookupAt(idx)
		}
		if train {
			b.trainAt(idx, target, &b.undo)
		}
		f.bufAux = idx
	}
	b.path.push(current)
	return target
}

// IdealCTTB is the alias-free CTTB limit: entries keyed by the exact
// (path, current task) context, with unbounded capacity (Figure 8).
type IdealCTTB struct {
	name    string
	path    pathReg
	ctx     slotMap
	entries []ttbEntry // by slot
	undoLog
}

// NewIdealCTTB builds an infinite, alias-free correlated target buffer of
// the given path depth. Depth 0 is the ideal (infinite) naive TTB.
//
// It panics if depth is outside [0, MaxHistoryDepth]. Ideal predictors
// exist only for the paper's limit studies, whose depths are compile-time
// constants; the panic marks a programming error, not an input error
// (see the panic contract on MustDOLC).
func NewIdealCTTB(depth int) *IdealCTTB {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: IdealCTTB depth %d out of range", depth))
	}
	return &IdealCTTB{
		name: fmt.Sprintf("CTTB-ideal(d=%d)", depth),
		path: newPathReg(depth),
		ctx:  newSlotMap(pathWidth(depth)),
	}
}

// Name implements TargetBuffer.
func (b *IdealCTTB) Name() string { return b.name }

// States implements TargetBuffer.
func (b *IdealCTTB) States() int { return b.ctx.contexts() }

// Reset implements TargetBuffer.
func (b *IdealCTTB) Reset() {
	b.path.reset()
	b.ctx.reset()
	b.entries = b.entries[:0]
	b.undo.reset()
}

// Lookup implements TargetBuffer.
func (b *IdealCTTB) Lookup(current isa.Addr) (isa.Addr, bool) {
	i, ok := b.ctx.find(b.path.key(current))
	if !ok || !b.entries[i].valid {
		return 0, false
	}
	return b.entries[i].target, true
}

// Train implements TargetBuffer.
func (b *IdealCTTB) Train(current isa.Addr, actual isa.Addr) {
	i, _ := b.entry(current)
	b.entries[i].train(actual)
}

// entry returns the slot of the current task's context, creating it
// (an invalid entry) when the context is new.
func (b *IdealCTTB) entry(current isa.Addr) (idx uint32, created bool) {
	idx, created = b.ctx.lookup(b.path.key(current))
	if created {
		b.entries = append(b.entries, ttbEntry{})
	}
	return idx, created
}

// Advance implements TargetBuffer.
func (b *IdealCTTB) Advance(current isa.Addr) { b.path.push(current) }

// replayTargetStep implements targetKernel: Lookup and Train share one
// path key and one table probe (a slot the train creates reads as the
// miss Lookup would have reported).
func (b *IdealCTTB) replayTargetStep(current isa.Addr, lookup, train bool, actual isa.Addr) (target isa.Addr, hit bool) {
	if train {
		i, _ := b.entry(current)
		e := &b.entries[i]
		if lookup && e.valid {
			target, hit = e.target, true
		}
		e.train(actual)
	} else if lookup {
		target, hit = b.Lookup(current)
	}
	b.path.push(current)
	return target, hit
}

// specStepTarget implements targetKernel: Lookup and a logged Train
// share one path key and one table probe (a slot the train creates
// reads as the miss Lookup would have reported).
func (b *IdealCTTB) specStepTarget(current isa.Addr, lookup, train, _ bool, target isa.Addr, _ *specFrame) isa.Addr {
	b.undo.reserve()
	if train {
		i, created := b.entry(current)
		e := &b.entries[i]
		if lookup {
			target = 0
			if e.valid {
				target = e.target
			}
		}
		// The slot's prior state, or its creation, goes on the log.
		if created {
			b.undo.push(specUndo{kind: undoIdealCreate, idx: i})
		} else {
			b.undo.push(ttbUndo(undoTTBIdeal, i, e))
		}
		e.train(target)
	} else if lookup {
		target, _ = b.Lookup(current) // a CTTB-only step of a task without exits
	}
	b.undo.push(specUndo{kind: undoPathHist, prev: b.path.oldest()})
	b.path.push(current)
	return target
}
