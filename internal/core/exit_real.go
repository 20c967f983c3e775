package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// pht is the pattern history table of a real exit predictor: one packed
// automaton (see AutomatonKind) per entry, zero while the entry has never
// been touched, plus the tie-break RNG its voting counters draw from.
// Every access ORs autTouched into the word it loads and stores the
// result back, so the entries touched are the non-zero words (live).
type pht struct {
	kind   AutomatonKind
	states []uint16
	seed   uint32
	rng    rng
}

func newPHT(kind AutomatonKind, size int, seed uint32) pht {
	return pht{kind: kind, states: make([]uint16, size), seed: seed, rng: newRNG(seed)}
}

// reset clears the table in place and reseeds the tie-break RNG.
func (t *pht) reset() {
	clear(t.states)
	t.rng = newRNG(t.seed)
}

// live returns the number of entries touched since the last reset: the
// non-zero words. It is exact because every live word keeps autTouched
// set — flipBit never inverts it, and an undo restores only a word that
// a predict of the same step had already touched.
func (t *pht) live() int {
	n := 0
	for _, s := range t.states {
		if s != 0 {
			n++
		}
	}
	return n
}

// predict returns entry idx's raw prediction, marking the entry touched:
// States counts every entry a prediction reads.
func (t *pht) predict(idx uint32) int {
	s := t.states[idx] | autTouched
	t.states[idx] = s
	return t.kind.predict(s, &t.rng)
}

// update trains entry idx with the actual exit, recording the prior word
// on log first when it is non-nil (a fused speculative step).
func (t *pht) update(idx uint32, exit int, log *undoRing) {
	s := t.states[idx]
	if log != nil {
		log.push(specUndo{kind: undoPHT, idx: idx, prev: uint32(s)})
	}
	t.states[idx] = t.kind.update(s|autTouched, exit)
}

// step is predict followed by an unlogged update of entry idx — the
// idealized replay step — through one load and one store.
func (t *pht) step(idx uint32, exit int) int {
	var pred int
	t.states[idx], pred = t.kind.step(t.states[idx], exit, &t.rng)
	return pred
}

// Options for real (table-backed) exit predictors.
type PathExitOptions struct {
	// SkipSingleExit enables the paper's §6.1 optimization: tasks with a
	// single exit are always predicted without consulting the PHT and do
	// not update it, reducing aliasing pressure. On by default in the
	// composed predictors; exposed here for the ablation study.
	SkipSingleExit bool
	// SkipSingleExitHistory additionally keeps single-exit tasks out of
	// the path history register. The paper is silent on this; the default
	// (false) records every task in the path.
	SkipSingleExitHistory bool
	// TrainLatency delays automaton training by this many task steps
	// while the path history still advances speculatively at prediction
	// time — the realistic model of the paper's §3.1 "Update Timing"
	// caveat (outcomes return from the execution ring several tasks
	// late; the sequencer's history register does not wait for them).
	// Zero reproduces the paper's idealized immediate update.
	TrainLatency int
	// Seed seeds the tie-break RNG for voting-counter automata.
	Seed uint32
}

// PathExit is the real implementation of the PATH scheme (§6): a pattern
// history table of automata indexed by the DOLC fold of the path history
// and current task address.
type PathExit struct {
	name string
	dolc DOLC
	opts PathExitOptions

	path dolcPath
	pht  pht
	undoLog

	// Pending automaton updates when TrainLatency > 0, kept in a
	// fixed-size ring (head index + live count) so a full FIFO costs
	// O(1) per step. The PHT index is captured at update time (before
	// further history pushes), exactly as hardware tags an in-flight
	// task with its prediction context.
	pending  []pendingTrain
	pendHead int
	pendN    int
}

type pendingTrain struct {
	idx  uint32
	exit int8
}

// NewPathExit builds a real path-based exit predictor with the given DOLC
// index configuration and automaton kind.
func NewPathExit(d DOLC, kind AutomatonKind, opts PathExitOptions) (*PathExit, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.TrainLatency < 0 {
		return nil, fmt.Errorf("core: negative TrainLatency %d", opts.TrainLatency)
	}
	p := &PathExit{
		dolc: d,
		opts: opts,
		path: newDOLCPath(d),
		pht:  newPHT(kind, d.TableSize(), opts.Seed+0x5f0d),
	}
	if opts.TrainLatency > 0 {
		p.pending = make([]pendingTrain, opts.TrainLatency+1)
	}
	p.name = fmt.Sprintf("PATH-real(%v,%s)", d, kind.Name())
	return p, nil
}

// MustPathExit is NewPathExit for statically-known configurations. It
// panics iff the configuration fails validation (see the panic contract
// on MustDOLC); runtime-provided configurations must use NewPathExit.
func MustPathExit(d DOLC, kind AutomatonKind, opts PathExitOptions) *PathExit {
	p, err := NewPathExit(d, kind, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements ExitPredictor.
func (p *PathExit) Name() string { return p.name }

// DOLC returns the predictor's index configuration.
func (p *PathExit) DOLC() DOLC { return p.dolc }

// States implements ExitPredictor: the number of distinct PHT entries
// touched (Figure 11's "real implementation" series).
func (p *PathExit) States() int { return p.pht.live() }

// Reset implements ExitPredictor.
func (p *PathExit) Reset() {
	p.path.reset()
	p.pht.reset()
	p.pendHead, p.pendN = 0, 0
	p.undo.reset()
}

// specErr implements exitKernel: the TrainLatency FIFO is itself an
// update-timing model and composing it under checkpoint repair would
// double-count the lag (the session's resolution window is the lag
// model in spec mode).
func (p *PathExit) specErr() error {
	if p.opts.TrainLatency > 0 {
		return &SpecUnsupportedError{Predictor: p.Name(), Reason: fmt.Sprintf(
			"TrainLatency %d cannot combine with it (the session's resolution lag models update timing)", p.opts.TrainLatency)}
	}
	return nil
}

// PredictExit implements ExitPredictor.
func (p *PathExit) PredictExit(t *tfg.Task) int {
	if p.opts.SkipSingleExit && t.SingleExit() {
		return 0
	}
	return clampExit(p.pht.predict(p.path.index(t.Start)), t)
}

// UpdateExit implements ExitPredictor.
func (p *PathExit) UpdateExit(t *tfg.Task, exit int) {
	var idx uint32
	single := t.SingleExit()
	if !(p.opts.SkipSingleExit && single) {
		idx = p.path.index(t.Start)
	}
	p.train(t.Start, single, idx, exit, nil)
}

// replayExitStep implements exitKernel: PredictExit and UpdateExit over
// one DOLC index, fused into one PHT step unless training is delayed.
func (p *PathExit) replayExitStep(ent *trace.DictEntry, exit int) int {
	single := ent.NumExits == 1
	if p.opts.SkipSingleExit && single {
		// PredictExit returns 0, the only valid exit; no PHT access, as
		// in UpdateExit.
		p.train(ent.Addr, true, 0, exit, nil)
		return 0
	}
	idx := p.path.index(ent.Addr)
	var pred int
	if p.opts.TrainLatency == 0 {
		pred = p.pht.step(idx, exit)
	} else {
		pred = p.pht.predict(idx)
		p.pendPush(idx, exit)
	}
	if !(p.opts.SkipSingleExitHistory && single) {
		p.path.push(ent.Addr)
	}
	return clampExits(pred, int(ent.NumExits))
}

// pendPush enqueues a delayed automaton update and, once the FIFO holds
// more than TrainLatency entries, trains the oldest — the same order as
// the original shifting FIFO, at O(1) per step.
func (p *PathExit) pendPush(idx uint32, exit int) {
	i := p.pendHead + p.pendN
	if i >= len(p.pending) {
		i -= len(p.pending)
	}
	p.pending[i] = pendingTrain{idx: idx, exit: int8(exit)}
	p.pendN++
	if p.pendN > p.opts.TrainLatency {
		u := p.pending[p.pendHead]
		p.pendHead++
		if p.pendHead == len(p.pending) {
			p.pendHead = 0
		}
		p.pendN--
		p.pht.update(u.idx, int(u.exit), nil)
	}
}

// specStepExit implements exitKernel: PredictExit and a logged
// UpdateExit toward the prediction over one DOLC index, which the frame
// keeps for the catch-up (phtSkipped when a single-exit task skips the
// PHT).
func (p *PathExit) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	single := nexits == 1
	if p.opts.SkipSingleExit && single {
		p.train(addr, true, 0, 0, &p.undo)
		f.exitAux = phtSkipped
		return 0
	}
	idx := p.path.index(addr)
	pred := clampExits(p.pht.predict(idx), nexits)
	p.train(addr, single, idx, pred, &p.undo)
	f.exitAux = uint64(idx)
	return pred
}

// phtSkipped marks a fused frame whose task skipped the PHT.
const phtSkipped = ^uint64(0)

// train is the index→train helper of every PATH update but the fused
// idealized PHT step: it trains PHT entry idx (the step's DOLC index;
// unused when a single-exit task skips the PHT) with exit, logging the
// write on log when non-nil, and shifts the task at addr into the path
// history.
func (p *PathExit) train(addr isa.Addr, single bool, idx uint32, exit int, log *undoRing) {
	if !(p.opts.SkipSingleExit && single) {
		if p.opts.TrainLatency == 0 {
			p.pht.update(idx, exit, log)
		} else {
			// Train once the outcome has "travelled back" TrainLatency
			// tasks later, at the index captured now. (log is always
			// nil here: specErr refuses TrainLatency under speculation.)
			p.pendPush(idx, exit)
		}
	}
	if !(p.opts.SkipSingleExitHistory && single) {
		p.path.push(addr)
	}
}

// GlobalExit is a real (table-backed) implementation of the GLOBAL
// scheme, provided as an extension beyond the paper (which only evaluated
// GLOBAL in its ideal form, arguing real PATH already beat ideal GLOBAL).
// The PHT index is the XOR-fold of (exit history ++ current task bits).
type GlobalExit struct {
	name      string
	depth     int
	current   int // bits of the current task address
	indexBits int

	hist ExitHistory
	pht  pht
	undoLog
}

// addrBits is the width of an isa.Addr, the most task address bits an
// index can take; with it a GLOBAL or PER intermediate index stays
// within 64 bits (at most 32 + 2·MaxHistoryDepth).
const addrBits = 32

// NewGlobalExit builds a real GLOBAL exit predictor: depth 2-bit exit
// steps of global history concatenated with currentBits of the task
// address, folded to indexBits.
func NewGlobalExit(depth, currentBits, indexBits int, kind AutomatonKind) (*GlobalExit, error) {
	if depth < 0 || depth > MaxHistoryDepth {
		return nil, fmt.Errorf("core: GlobalExit depth %d out of range", depth)
	}
	if indexBits <= 0 || indexBits > 30 {
		return nil, fmt.Errorf("core: GlobalExit index bits %d out of range", indexBits)
	}
	if currentBits < 0 || currentBits > addrBits {
		return nil, fmt.Errorf("core: GlobalExit current-task bits %d out of range 0..%d", currentBits, addrBits)
	}
	return &GlobalExit{
		name:  fmt.Sprintf("GLOBAL-real(d=%d,c=%d,i=%d,%s)", depth, currentBits, indexBits, kind.Name()),
		depth: depth, current: currentBits, indexBits: indexBits,
		pht: newPHT(kind, 1<<uint(indexBits), 11),
	}, nil
}

// Name implements ExitPredictor.
func (p *GlobalExit) Name() string { return p.name }

// States implements ExitPredictor.
func (p *GlobalExit) States() int { return p.pht.live() }

// Reset implements ExitPredictor.
func (p *GlobalExit) Reset() {
	p.hist = 0
	p.pht.reset()
	p.undo.reset()
}

func (p *GlobalExit) index(addr isa.Addr) uint32 {
	v := uint64(p.hist)<<uint(p.current) | uint64(addr)&(1<<uint(p.current)-1)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

// PredictExit implements ExitPredictor.
func (p *GlobalExit) PredictExit(t *tfg.Task) int {
	return clampExit(p.pht.predict(p.index(t.Start)), t)
}

// UpdateExit implements ExitPredictor.
func (p *GlobalExit) UpdateExit(t *tfg.Task, exit int) { p.train(p.index(t.Start), exit, nil) }

// replayExitStep implements exitKernel: PredictExit and UpdateExit over
// one index and one PHT step.
func (p *GlobalExit) replayExitStep(ent *trace.DictEntry, exit int) int {
	pred := p.pht.step(p.index(ent.Addr), exit)
	p.hist = p.hist.Push(exit, p.depth)
	return clampExits(pred, int(ent.NumExits))
}

// specStepExit implements exitKernel; the frame keeps the global
// history the step started from.
func (p *GlobalExit) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	f.exitAux = uint64(p.hist)
	idx := p.index(addr)
	pred := clampExits(p.pht.predict(idx), nexits)
	p.train(idx, pred, &p.undo)
	return pred
}

// train is the index→train helper: PHT entry idx learns exit (the
// write logged on log when non-nil), which then shifts into the global
// history.
func (p *GlobalExit) train(idx uint32, exit int, log *undoRing) {
	p.pht.update(idx, exit, log)
	p.hist = p.hist.Push(exit, p.depth)
}

// PerExit is a real (table-backed) implementation of the PER scheme,
// likewise an extension beyond the paper: a history register table (HRT)
// indexed by task address bits, and a PHT indexed by (task bits ++ that
// task's history), folded.
type PerExit struct {
	name      string
	depth     int
	hrtBits   int
	taskBits  int // task address bits mixed into the PHT index
	indexBits int

	hrt []ExitHistory
	pht pht
	undoLog
}

// NewPerExit builds a real PER exit predictor.
func NewPerExit(depth, hrtBits, taskBits, indexBits int, kind AutomatonKind) (*PerExit, error) {
	if depth < 0 || depth > MaxHistoryDepth {
		return nil, fmt.Errorf("core: PerExit depth %d out of range", depth)
	}
	if indexBits <= 0 || indexBits > 30 || hrtBits <= 0 || hrtBits > 24 {
		return nil, fmt.Errorf("core: PerExit table sizes out of range")
	}
	if taskBits < 0 || taskBits > addrBits {
		return nil, fmt.Errorf("core: PerExit task bits %d out of range 0..%d", taskBits, addrBits)
	}
	return &PerExit{
		name:  fmt.Sprintf("PER-real(d=%d,h=%d,i=%d,%s)", depth, hrtBits, indexBits, kind.Name()),
		depth: depth, hrtBits: hrtBits, taskBits: taskBits, indexBits: indexBits,
		hrt: make([]ExitHistory, 1<<uint(hrtBits)),
		pht: newPHT(kind, 1<<uint(indexBits), 13),
	}, nil
}

// Name implements ExitPredictor.
func (p *PerExit) Name() string { return p.name }

// States implements ExitPredictor.
func (p *PerExit) States() int { return p.pht.live() }

// Reset implements ExitPredictor.
func (p *PerExit) Reset() {
	clear(p.hrt)
	p.pht.reset()
	p.undo.reset()
}

func (p *PerExit) hrtIndex(addr isa.Addr) uint32 {
	return uint32(addr) & (1<<uint(p.hrtBits) - 1)
}

func (p *PerExit) phtIndex(addr isa.Addr, hist ExitHistory) uint32 {
	v := uint64(addr)&(1<<uint(p.taskBits)-1)<<(2*uint(p.depth)) | uint64(hist)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

// PredictExit implements ExitPredictor.
func (p *PerExit) PredictExit(t *tfg.Task) int {
	return clampExit(p.pht.predict(p.phtIndex(t.Start, p.hrt[p.hrtIndex(t.Start)])), t)
}

// UpdateExit implements ExitPredictor.
func (p *PerExit) UpdateExit(t *tfg.Task, exit int) {
	h := p.hrtIndex(t.Start)
	p.train(h, p.phtIndex(t.Start, p.hrt[h]), exit, nil)
}

// replayExitStep implements exitKernel: PredictExit and UpdateExit over
// one HRT slot and one PHT step.
func (p *PerExit) replayExitStep(ent *trace.DictEntry, exit int) int {
	h := p.hrtIndex(ent.Addr)
	pred := p.pht.step(p.phtIndex(ent.Addr, p.hrt[h]), exit)
	p.hrt[h] = p.hrt[h].Push(exit, p.depth)
	return clampExits(pred, int(ent.NumExits))
}

// specStepExit implements exitKernel; the frame keeps the HRT slot
// and the history it held before the step.
func (p *PerExit) specStepExit(addr isa.Addr, nexits int, f *specFrame) int {
	p.undo.reserve()
	h := p.hrtIndex(addr)
	f.exitAux = uint64(h)<<32 | uint64(p.hrt[h])
	idx := p.phtIndex(addr, p.hrt[h])
	pred := clampExits(p.pht.predict(idx), nexits)
	p.train(h, idx, pred, &p.undo)
	return pred
}

// train is the index→train helper: PHT entry idx learns exit (the
// write logged on log when non-nil), which then shifts into the task's
// history at HRT slot h.
func (p *PerExit) train(h, idx uint32, exit int, log *undoRing) {
	p.pht.update(idx, exit, log)
	p.hrt[h] = p.hrt[h].Push(exit, p.depth)
}
