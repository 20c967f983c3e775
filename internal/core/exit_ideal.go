package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// The ideal predictors implement the paper's alias-free limit study
// (§5.2): "ideal" means no two distinct prediction contexts ever share an
// automaton. Each context has an exact key (a ctxKey) and a slot in a
// flat slice of packed automata; a slotMap finds the slot through an
// open-addressed index of slot numbers, so a context costs no heap
// object of its own, a step costs one probe and no Go map, and an
// undo-log entry names a slot by index instead of by pointer. The keys
// are kept as shift registers that each step updates: ExitHistory for
// GLOBAL and PER, pathReg for PATH (and the ideal CTTB).
//
// At depth 0 all three schemes degenerate to one automaton per static
// task ("no correlation is exploited").

// ctxKey is the exact context key of an ideal table: the three words of
// a path key in MakePathKey's layout, or an exit key (task address, exit
// history) packed into w0 — an exit history of at most MaxHistoryDepth
// 2-bit steps fits the 32 bits above the address. It is a struct, not
// a PathKey, so the compiler keeps its words in registers.
type ctxKey struct{ w0, w1, w2 uint64 }

// exitCtx is the exit-history schemes' key: the current task plus a
// 2-bit-per-step exit history register (global or per-task).
func exitCtx(addr isa.Addr, h ExitHistory) ctxKey {
	return ctxKey{w0: uint64(h)<<32 | uint64(addr)}
}

// hash mixes the key's words; slotMap indexes by its top bits.
func (k *ctxKey) hash() uint64 {
	return k.w0*0x9e3779b97f4a7c15 + k.w1*0xc2b2ae3d27d4eb4f + k.w2*0x165667b19e3779f9
}

// slotMap is the context index of an ideal (alias-free) table: it
// numbers each exact key in order of first touch, and the table keeps
// its contexts' state in a flat slice indexed by that slot number.
// Slots never move. Each slot's key is stored as the width words a
// table's keys can use (one for an exit key, depth/4+1 for a path key;
// the rest are zero). The index is a power-of-two table of slot+1 (0
// marks an empty position), probed linearly from the key's hash and
// compared against the slot's stored key, so it holds no second copy of
// any key; it is at most half full, and growing it rehashes the live
// slots' keys, so slot numbers and creation order never change.
type slotMap struct {
	index []uint32
	shift uint // 64 - log2(len(index))
	live  int
	width int      // key words stored per slot: 1, 2 or 3
	keys  []uint64 // slot s's key words at [s*width, (s+1)*width)
}

// slotIndexMin is a fresh index's length.
const slotIndexMin = 64

func newSlotMap(width int) slotMap {
	return slotMap{index: make([]uint32, slotIndexMin), shift: 64 - 6, width: width}
}

// pathWidth is the number of key words a path key of the given depth
// uses: fields 0..depth, four to a word.
func pathWidth(depth int) int { return depth/4 + 1 }

// size returns the number of slots numbered and not truncated away.
func (m *slotMap) size() int { return len(m.keys) / m.width }

// key returns slot s's key.
func (m *slotMap) key(s uint32) ctxKey {
	var k [3]uint64
	copy(k[:], m.keys[int(s)*m.width:][:m.width])
	return ctxKey{k[0], k[1], k[2]}
}

// is reports whether slot s holds key k.
func (m *slotMap) is(s uint32, k *ctxKey) bool {
	i := int(s) * m.width
	switch m.width {
	case 1:
		return m.keys[i] == k.w0
	case 2:
		return m.keys[i] == k.w0 && m.keys[i+1] == k.w1
	}
	return m.keys[i] == k.w0 && m.keys[i+1] == k.w1 && m.keys[i+2] == k.w2
}

// home is k's first probe position.
func (m *slotMap) home(k *ctxKey) uint64 { return k.hash() >> m.shift }

// find returns k's slot, if it has one.
func (m *slotMap) find(k ctxKey) (uint32, bool) {
	mask := uint64(len(m.index) - 1)
	for i := m.home(&k); ; i = (i + 1) & mask {
		s := m.index[i]
		if s == 0 {
			return 0, false
		}
		if m.is(s-1, &k) {
			return s - 1, true
		}
	}
}

// lookup returns k's slot, numbering a new one when k is new: the
// caller then appends the slot's fresh state.
func (m *slotMap) lookup(k ctxKey) (idx uint32, created bool) {
	mask := uint64(len(m.index) - 1)
	i := m.home(&k)
	for ; ; i = (i + 1) & mask {
		s := m.index[i]
		if s == 0 {
			return m.create(k, i), true
		}
		if m.is(s-1, &k) {
			return s - 1, false
		}
	}
}

// create numbers a slot for k, which probes to the empty position pos.
func (m *slotMap) create(k ctxKey, pos uint64) uint32 {
	idx := uint32(m.size())
	switch m.width {
	case 1:
		m.keys = append(m.keys, k.w0)
	case 2:
		m.keys = append(m.keys, k.w0, k.w1)
	default:
		m.keys = append(m.keys, k.w0, k.w1, k.w2)
	}
	m.index[pos] = idx + 1
	if m.live++; 2*m.live > len(m.index) {
		m.grow()
	}
	return idx
}

// grow doubles the index, reinserting every live slot from its key.
func (m *slotMap) grow() {
	old := m.index
	m.index = make([]uint32, 2*len(old))
	m.shift--
	mask := uint64(len(m.index) - 1)
	for _, s := range old {
		if s != 0 {
			k := m.key(s - 1)
			i := m.home(&k)
			for m.index[i] != 0 {
				i = (i + 1) & mask
			}
			m.index[i] = s
		}
	}
}

// drop undoes the creation of slot idx, reporting whether it was the
// last slot, which the caller then truncates away with its state. Only
// the ideal CTTB logs creates; its drain pops them newest-first, so idx
// is normally the last slot. The index entry is removed by backward-
// shift deletion — each later entry of its probe run moves into the
// hole unless that would put it before its home — which leaves no
// tombstone, so an unlogged create above idx (which would keep idx
// allocated but unreachable) cannot break a later probe or grow.
func (m *slotMap) drop(idx uint32) (last bool) {
	mask := uint64(len(m.index) - 1)
	k := m.key(idx)
	i := m.home(&k)
	for m.index[i] != idx+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		kj := m.key(m.index[j] - 1)
		if (j-m.home(&kj))&mask >= (j-i)&mask {
			m.index[i] = m.index[j]
			i = j
		}
	}
	m.index[i] = 0
	m.live--
	if int(idx) != m.size()-1 {
		return false
	}
	m.keys = m.keys[:int(idx)*m.width]
	return true
}

// contexts returns the number of live contexts.
func (m *slotMap) contexts() int { return m.live }

// reset empties the index, keeping its storage for reuse.
func (m *slotMap) reset() {
	clear(m.index)
	m.live = 0
	m.keys = m.keys[:0]
}

// idealPHT is the automaton table shared by the ideal exit predictors:
// a slotMap over packed automata plus the kind and its tie-break RNG.
type idealPHT struct {
	slotMap
	slots []uint16
	kind  AutomatonKind
	seed  uint32
	rng   rng
}

func newIdealPHT(kind AutomatonKind, seed uint32, width int) idealPHT {
	return idealPHT{slotMap: newSlotMap(width), kind: kind, seed: seed, rng: newRNG(seed)}
}

func (t *idealPHT) reset() {
	t.slotMap.reset()
	t.slots = t.slots[:0]
	t.rng = newRNG(t.seed)
}

// slot returns k's slot, creating it in the touched state when k is
// new.
func (t *idealPHT) slot(k ctxKey) uint32 {
	idx, created := t.lookup(k)
	if created {
		t.slots = append(t.slots, autTouched)
	}
	return idx
}

// predict returns the raw prediction of k's automaton (created on first
// touch) and its slot.
func (t *idealPHT) predict(k ctxKey) (idx uint32, exit int) {
	idx = t.slot(k)
	return idx, t.kind.predict(t.slots[idx], &t.rng)
}

// step is predict followed by an unlogged train of k's automaton
// (created on first touch) — the idealized replay step — through one
// load and one store of its slot.
func (t *idealPHT) step(k ctxKey, exit int) int {
	s := &t.slots[t.slot(k)]
	next, pred := t.kind.step(*s, exit, &t.rng)
	*s = next
	return pred
}

// train updates slot idx with the actual exit, logging the prior word
// when log is non-nil (a fused speculative step).
func (t *idealPHT) train(idx uint32, exit int, log *undoRing) {
	if log != nil {
		log.push(specUndo{kind: undoIdealState, idx: idx, prev: uint32(t.slots[idx])})
	}
	t.slots[idx] = t.kind.update(t.slots[idx], exit)
}

// IdealGlobal is the ideal GLOBAL scheme: a single exit-number history
// register shared by all tasks, paired with the current task address.
type IdealGlobal struct {
	name  string
	depth int
	hist  ExitHistory
	table idealPHT
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
		depth: depth, table: newIdealPHT(kind, 1, 1),
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
	_, e := p.table.predict(exitCtx(t.Start, p.hist))
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealGlobal) UpdateExit(t *tfg.Task, exit int) {
	p.train(p.table.slot(exitCtx(t.Start, p.hist)), exit, nil)
}

// replayExitStep implements exitKernel: one key, one table probe.
func (p *IdealGlobal) replayExitStep(ent *trace.DictEntry, exit int) int {
	e := p.table.step(exitCtx(ent.Addr, p.hist), exit)
	p.hist = p.hist.Push(exit, p.depth)
	return clampExits(e, int(ent.NumExits))
}

// specStepExit implements exitKernel: one key, one table probe; the
// frame keeps the global history the step started from and its slot.
func (p *IdealGlobal) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	idx, e := p.table.predict(exitCtx(addr, p.hist))
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
	hists []ExitHistory // indexed by task address, grown on first touch
	table idealPHT
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
		table: newIdealPHT(kind, 2, 1),
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

// hist returns the history register of the task at addr.
func (p *IdealPer) hist(addr isa.Addr) *ExitHistory {
	if int(addr) >= len(p.hists) {
		p.growHists(addr)
	}
	return &p.hists[addr]
}

// growHists extends the register file to cover addr.
//
//go:noinline
func (p *IdealPer) growHists(addr isa.Addr) {
	p.hists = append(p.hists, make([]ExitHistory, max(int(addr)+1, 2*len(p.hists))-len(p.hists))...)
}

// PredictExit implements ExitPredictor.
func (p *IdealPer) PredictExit(t *tfg.Task) int {
	_, e := p.table.predict(exitCtx(t.Start, *p.hist(t.Start)))
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPer) UpdateExit(t *tfg.Task, exit int) {
	h := p.hist(t.Start)
	p.train(h, p.table.slot(exitCtx(t.Start, *h)), exit, nil)
}

// replayExitStep implements exitKernel: one history read, one table
// probe, one history write.
func (p *IdealPer) replayExitStep(ent *trace.DictEntry, exit int) int {
	h := p.hist(ent.Addr)
	e := p.table.step(exitCtx(ent.Addr, *h), exit)
	*h = h.Push(exit, p.depth)
	return clampExits(e, int(ent.NumExits))
}

// specStepExit implements exitKernel: one history read, one table
// probe, one history write; the frame keeps the task's history from
// before the step and its slot.
func (p *IdealPer) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	h := p.hist(addr)
	idx, e := p.table.predict(exitCtx(addr, *h))
	f.exitAux = uint64(*h)<<32 | uint64(idx)
	pred := clampExits(e, nexits)
	p.train(h, idx, pred, &p.undo)
	return pred
}

// train is the index→train helper: slot idx learns exit (the write
// logged on log when non-nil), which then shifts into the task's
// history register h.
func (p *IdealPer) train(h *ExitHistory, idx uint32, exit int, log *undoRing) {
	p.table.train(idx, exit, log)
	*h = h.Push(exit, p.depth)
}

// IdealPath is the ideal PATH scheme: the prediction context is the exact
// sequence of the depth most recent task start addresses plus the current
// task — unique path identification with no aliasing.
type IdealPath struct {
	name  string
	path  pathReg
	table idealPHT
	undoLog
}

// NewIdealPath returns an alias-free PATH exit predictor. It panics on a
// depth outside [0, MaxHistoryDepth]; see NewIdealGlobal.
func NewIdealPath(depth int, kind AutomatonKind) *IdealPath {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: IdealPath depth %d out of range", depth))
	}
	return &IdealPath{
		name: fmt.Sprintf("PATH-ideal(d=%d,%s)", depth, kind.Name()),
		path: newPathReg(depth), table: newIdealPHT(kind, 3, pathWidth(depth)),
	}
}

// Name implements ExitPredictor.
func (p *IdealPath) Name() string { return p.name }

// States implements ExitPredictor.
func (p *IdealPath) States() int { return p.table.contexts() }

// Reset implements ExitPredictor.
func (p *IdealPath) Reset() {
	p.path.reset()
	p.table.reset()
	p.undo.reset()
}

// PredictExit implements ExitPredictor.
func (p *IdealPath) PredictExit(t *tfg.Task) int {
	_, e := p.table.predict(p.path.key(t.Start))
	return clampExit(e, t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPath) UpdateExit(t *tfg.Task, exit int) {
	p.train(t.Start, p.table.slot(p.path.key(t.Start)), exit, nil)
}

// replayExitStep implements exitKernel: one path key, one table probe.
func (p *IdealPath) replayExitStep(ent *trace.DictEntry, exit int) int {
	e := p.table.step(p.path.key(ent.Addr), exit)
	p.path.push(ent.Addr)
	return clampExits(e, int(ent.NumExits))
}

// specStepExit implements exitKernel: one path key, one table probe;
// the frame keeps the slot for the catch-up.
func (p *IdealPath) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	idx, e := p.table.predict(p.path.key(addr))
	pred := clampExits(e, nexits)
	p.train(addr, idx, pred, &p.undo)
	f.exitAux = uint64(idx)
	return pred
}

// train is the index→train helper: slot idx learns exit (the write
// logged on log when non-nil), then addr shifts into the path history.
func (p *IdealPath) train(addr isa.Addr, idx uint32, exit int, log *undoRing) {
	p.table.train(idx, exit, log)
	p.path.push(addr)
}
