package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// The ideal predictors implement the paper's alias-free limit study
// (§5.2): "ideal" means no two distinct prediction contexts ever share an
// automaton. They are map-backed, with exact keys: each map holds a
// context's slot in a flat slice of packed automata (a slotMap), so a
// context costs no heap object of its own and an undo-log entry names a
// slot by index instead of by pointer.
//
// At depth 0 all three schemes degenerate to one automaton per static
// task ("no correlation is exploited").

// exitKey is the exact context key for the exit-history schemes: the
// current task plus a 2-bit-per-step exit history register (global or
// per-task).
type exitKey struct {
	addr isa.Addr
	hist ExitHistory
}

// slotMap is the storage of an ideal (alias-free) table: an exact-key
// map from context to slot index plus the flat slot slice it indexes,
// and each slot's key so an undo entry can name a context by its slot.
// Slots are appended on first touch and never move.
type slotMap[K comparable, E any] struct {
	index map[K]uint32
	slots []E
	keys  []K
}

func newSlotMap[K comparable, E any]() slotMap[K, E] {
	return slotMap[K, E]{index: make(map[K]uint32)}
}

// find returns k's slot, if it has one.
func (m *slotMap[K, E]) find(k K) (uint32, bool) {
	i, ok := m.index[k]
	return i, ok
}

// lookup returns k's slot, appending one initialized to fresh when k is
// new.
func (m *slotMap[K, E]) lookup(k K, fresh E) (idx uint32, created bool) {
	if i, ok := m.index[k]; ok {
		return i, false
	}
	i := uint32(len(m.slots))
	m.slots = append(m.slots, fresh)
	m.keys = append(m.keys, k)
	m.index[k] = i
	return i, true
}

// drop undoes the creation of slot idx. Only the ideal CTTB logs
// creates; its drain pops them newest-first, so every younger logged
// create is already gone and idx is the last slot, which is truncated
// away (an unlogged create above it would leave idx allocated but
// unreachable).
func (m *slotMap[K, E]) drop(idx uint32) {
	delete(m.index, m.keys[idx])
	if int(idx) == len(m.slots)-1 {
		m.slots = m.slots[:idx]
		m.keys = m.keys[:idx]
	}
}

// contexts returns the number of live contexts.
func (m *slotMap[K, E]) contexts() int { return len(m.index) }

// reset empties the table, keeping its storage for reuse.
func (m *slotMap[K, E]) reset() {
	clear(m.index)
	m.slots = m.slots[:0]
	m.keys = m.keys[:0]
}

// idealPHT is the automaton table shared by the ideal exit predictors:
// a slotMap of packed automata plus the kind and its tie-break RNG.
type idealPHT[K comparable] struct {
	slotMap[K, uint16]
	kind AutomatonKind
	seed uint32
	rng  rng
}

func newIdealPHT[K comparable](kind AutomatonKind, seed uint32) idealPHT[K] {
	return idealPHT[K]{slotMap: newSlotMap[K, uint16](), kind: kind, seed: seed, rng: newRNG(seed)}
}

func (t *idealPHT[K]) reset() {
	t.slotMap.reset()
	t.rng = newRNG(t.seed)
}

// predict returns the raw prediction of k's automaton (created on first
// touch) and its slot.
func (t *idealPHT[K]) predict(k K) (idx uint32, exit int) {
	idx, _ = t.lookup(k, autTouched)
	return idx, t.kind.predict(t.slots[idx], &t.rng)
}

// train updates slot idx with the actual exit, logging the prior word
// when log is non-nil (a fused speculative step).
func (t *idealPHT[K]) train(idx uint32, exit int, log *undoRing) {
	if log != nil {
		log.push(specUndo{kind: undoIdealState, idx: idx, prev: uint32(t.slots[idx])})
	}
	t.slots[idx] = t.kind.update(t.slots[idx], exit)
}

// slot returns k's slot for an update, creating it when k is new.
func (t *idealPHT[K]) slot(k K) uint32 {
	idx, _ := t.lookup(k, autTouched)
	return idx
}

// IdealGlobal is the ideal GLOBAL scheme: a single exit-number history
// register shared by all tasks, paired with the current task address.
type IdealGlobal struct {
	name  string
	depth int
	hist  ExitHistory
	table idealPHT[exitKey]
	undoLog
}

// NewIdealGlobal returns an alias-free GLOBAL exit predictor of the given
// history depth using the given automaton kind. Like every ideal
// constructor it panics on a depth outside [0, MaxHistoryDepth]: ideal
// predictors serve the limit studies, whose depths are compile-time
// constants, so an out-of-range depth is a programming error (see the
// panic contract on MustDOLC).
func NewIdealGlobal(depth int, kind AutomatonKind) *IdealGlobal {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: IdealGlobal depth %d out of range", depth))
	}
	return &IdealGlobal{
		name:  fmt.Sprintf("GLOBAL-ideal(d=%d,%s)", depth, kind.Name()),
		depth: depth, table: newIdealPHT[exitKey](kind, 1),
	}
}

// Name implements ExitPredictor.
func (p *IdealGlobal) Name() string { return p.name }

// States implements ExitPredictor.
func (p *IdealGlobal) States() int { return p.table.contexts() }

// Reset implements ExitPredictor.
func (p *IdealGlobal) Reset() {
	p.hist = 0
	p.table.reset()
	p.undo.reset()
}

// PredictExit implements ExitPredictor.
func (p *IdealGlobal) PredictExit(t *tfg.Task) int {
	_, e := p.table.predict(exitKey{addr: t.Start, hist: p.hist})
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealGlobal) UpdateExit(t *tfg.Task, exit int) {
	p.train(p.table.slot(exitKey{addr: t.Start, hist: p.hist}), exit, nil)
}

// specStepExit implements exitSpecKernel: one key, one map lookup; the
// frame keeps the global history the step started from and its slot.
func (p *IdealGlobal) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	idx, e := p.table.predict(exitKey{addr: addr, hist: p.hist})
	f.exitAux = uint64(p.hist)<<32 | uint64(idx)
	pred := clampExits(e, nexits)
	p.train(idx, pred, &p.undo)
	return pred
}

// train is the index→train helper: slot idx learns exit (the write
// logged on log when non-nil), which then shifts into the global
// history.
func (p *IdealGlobal) train(idx uint32, exit int, log *undoRing) {
	p.table.train(idx, exit, log)
	p.hist = p.hist.Push(exit, p.depth)
}

// IdealPer is the ideal PER scheme (the paper's analogue of Yeh & Patt's
// PAp): one exit-history register and one table of automata per static
// task, with no aliasing anywhere.
type IdealPer struct {
	name  string
	depth int
	hists map[isa.Addr]ExitHistory
	table idealPHT[exitKey]
	undoLog
}

// NewIdealPer returns an alias-free PER exit predictor. It panics on a
// depth outside [0, MaxHistoryDepth]; see NewIdealGlobal.
func NewIdealPer(depth int, kind AutomatonKind) *IdealPer {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: IdealPer depth %d out of range", depth))
	}
	return &IdealPer{
		name:  fmt.Sprintf("PER-ideal(d=%d,%s)", depth, kind.Name()),
		depth: depth,
		hists: make(map[isa.Addr]ExitHistory),
		table: newIdealPHT[exitKey](kind, 2),
	}
}

// Name implements ExitPredictor.
func (p *IdealPer) Name() string { return p.name }

// States implements ExitPredictor.
func (p *IdealPer) States() int { return p.table.contexts() }

// Reset implements ExitPredictor.
func (p *IdealPer) Reset() {
	clear(p.hists)
	p.table.reset()
	p.undo.reset()
}

// PredictExit implements ExitPredictor.
func (p *IdealPer) PredictExit(t *tfg.Task) int {
	_, e := p.table.predict(exitKey{addr: t.Start, hist: p.hists[t.Start]})
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPer) UpdateExit(t *tfg.Task, exit int) {
	h := p.hists[t.Start]
	p.train(t.Start, h, p.table.slot(exitKey{addr: t.Start, hist: h}), exit, nil)
}

// specStepExit implements exitSpecKernel: one history read, one table
// lookup, one history write; the frame keeps the task's history from
// before the step and its slot.
func (p *IdealPer) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	h := p.hists[addr]
	idx, e := p.table.predict(exitKey{addr: addr, hist: h})
	f.exitAux = uint64(h)<<32 | uint64(idx)
	pred := clampExits(e, nexits)
	p.train(addr, h, idx, pred, &p.undo)
	return pred
}

// train is the index→train helper: slot idx learns exit (the write
// logged on log when non-nil), which then shifts into history h of the
// task at addr.
func (p *IdealPer) train(addr isa.Addr, h ExitHistory, idx uint32, exit int, log *undoRing) {
	p.table.train(idx, exit, log)
	p.hists[addr] = h.Push(exit, p.depth)
}

// IdealPath is the ideal PATH scheme: the prediction context is the exact
// sequence of the depth most recent task start addresses plus the current
// task — unique path identification with no aliasing.
type IdealPath struct {
	name  string
	depth int
	hist  PathHistory
	table idealPHT[PathKey]
	undoLog
}

// NewIdealPath returns an alias-free PATH exit predictor. It panics on a
// depth outside [0, MaxHistoryDepth]; see NewIdealGlobal.
func NewIdealPath(depth int, kind AutomatonKind) *IdealPath {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: IdealPath depth %d out of range", depth))
	}
	return &IdealPath{
		name:  fmt.Sprintf("PATH-ideal(d=%d,%s)", depth, kind.Name()),
		depth: depth, table: newIdealPHT[PathKey](kind, 3),
	}
}

// Name implements ExitPredictor.
func (p *IdealPath) Name() string { return p.name }

// States implements ExitPredictor.
func (p *IdealPath) States() int { return p.table.contexts() }

// Reset implements ExitPredictor.
func (p *IdealPath) Reset() {
	p.hist.Reset()
	p.table.reset()
	p.undo.reset()
}

// PredictExit implements ExitPredictor.
func (p *IdealPath) PredictExit(t *tfg.Task) int {
	_, e := p.table.predict(MakePathKey(&p.hist, t.Start, p.depth))
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPath) UpdateExit(t *tfg.Task, exit int) {
	p.train(t.Start, p.table.slot(MakePathKey(&p.hist, t.Start, p.depth)), exit, nil)
}

// specStepExit implements exitSpecKernel: one path key, one map lookup;
// the frame keeps the slot for the catch-up.
func (p *IdealPath) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	idx, e := p.table.predict(MakePathKey(&p.hist, addr, p.depth))
	pred := clampExits(e, nexits)
	p.train(addr, idx, pred, &p.undo)
	f.exitAux = uint64(idx)
	return pred
}

// train is the index→train helper: slot idx learns exit (the write
// logged on log when non-nil), then addr shifts into the path history.
func (p *IdealPath) train(addr isa.Addr, idx uint32, exit int, log *undoRing) {
	p.table.train(idx, exit, log)
	p.hist.Push(addr)
}
