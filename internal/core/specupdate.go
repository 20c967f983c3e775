package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// Speculative update with checkpoint repair — the realistic replacement
// for the paper's §3.1 idealization (immediate, non-speculative predictor
// training). In this mode the sequencer trains its predictors at
// prediction time with the *predicted* outcome, the way the XIOSim fetch
// stage calls spec_update before the branch resolves, and repairs them
// when a misprediction resolves. The public protocol is:
//
//	pred := p.PredictExit(t)
//	m := p.MarkExit()          // checkpoint: undo-log position (+ RAS mark)
//	p.SpecUpdateExit(t, pred)  // full update, every mutation undo-logged
//	...                        // outcome resolves up to `lag` tasks later
//	p.CommitExit(m2)           // correct: discard the frame's undo entries
//	p.RepairExit(m)            // wrong: drain the undo log back to the mark
//
// Repair is a bounded drain of an in-place undo log — never a
// re-simulation — so rollback-heavy replay stays allocation-free per
// step. Every logged mutation records the exact prior word of state
// (packed automaton, history register, table entry), and draining newest
// to oldest restores predictor tables precisely to the mark. The only
// speculative effects that survive a repair are allocations performed by
// wrong-path *lookups* (PHT entries and map contexts materialized on
// first touch): hardware tables exist whether or not an index is later
// squashed, so States() in spec mode counts wrong-path pollution too.
//
// The built-in predictors also implement a fused form of the same
// protocol (exitSpecKernel, targetSpecKernel, taskSpecKernel): one call
// per step predicts and trains toward the prediction with a single
// table index, the session reads checkpoints off the predictor's undo
// ring and commits on it directly, and one call per squash drains the
// log and replays the window's actual outcomes. The SpecExitSession /
// SpecTaskSession drivers (specsession.go) take the fused path whenever
// the predictor offers it and the public protocol otherwise.

// SpecMark is a predictor checkpoint: an absolute position in the
// predictor's undo log captured by MarkExit/MarkTarget before a
// speculative update.
type SpecMark uint64

// SpecExitPredictor is an exit predictor that supports speculative
// update with checkpoint repair. SpecUpdateExit performs exactly the
// same training as UpdateExit while recording inverse operations;
// RepairExit(m) restores every table, history register and automaton to
// its state when MarkExit returned m; CommitExit(m) discards undo
// entries older than m once the speculation they guard has resolved
// correctly.
type SpecExitPredictor interface {
	ExitPredictor
	SpecUpdateExit(t *tfg.Task, exit int)
	MarkExit() SpecMark
	RepairExit(SpecMark)
	CommitExit(SpecMark)
}

// SpecTargetBuffer is a target buffer that supports speculative
// training with checkpoint repair, mirroring the Train/Advance contract
// of TargetBuffer.
type SpecTargetBuffer interface {
	TargetBuffer
	SpecTrain(current, target isa.Addr)
	SpecAdvance(current isa.Addr)
	MarkTarget() SpecMark
	RepairTarget(SpecMark)
	CommitTarget(SpecMark)
}

// TaskMark is the composed checkpoint of a full task predictor: the
// exit predictor's and target buffer's undo-log marks plus the RAS
// repair point.
type TaskMark struct {
	exit SpecMark
	buf  SpecMark
	ras  RASMark
}

// SpecTaskPredictor is a task predictor that supports speculative
// update with checkpoint repair. RepairTask reports whether the RAS
// repair was inexact (deep wrong-path pushes clobbered live entries the
// mark cannot restore — see RAS.Repair).
type SpecTaskPredictor interface {
	TaskPredictor
	SpecUpdate(t *tfg.Task, p Prediction)
	MarkTask() TaskMark
	RepairTask(TaskMark) bool
	CommitTask(TaskMark)
}

// exitSpecKernel is the fused speculative step of the built-in exit
// predictors.
type exitSpecKernel interface {
	SpecExitPredictor
	// specStepExit predicts the task at addr, which has nexits exits,
	// and trains toward that prediction through the same index→train
	// helper as UpdateExit, computing the table index or ideal key once.
	// It logs the table write on specLog and records in f what the
	// catch-up needs instead of the history.
	specStepExit(addr isa.Addr, nexits int, f *specFrame) int
	// squashExit repairs the predictor to mark m, then replays the
	// window's actual exits non-speculatively.
	squashExit(m SpecMark, w *specWindow)
	// specLog returns the undo ring the speculative updates log on.
	specLog() *undoRing
}

// targetSpecKernel is the fused speculative step of the built-in target
// buffers.
type targetSpecKernel interface {
	SpecTargetBuffer
	// specStepTarget is one speculative buffer step for current: with
	// lookup it predicts the target (zero on a miss), which replaces
	// target; with train it trains toward target, sharing the lookup's
	// index; then it advances the path history. Like specStepExit it
	// logs on specLog and records its replay state in f, which keep
	// requests for any step the catch-up may train (lookup and train
	// imply it).
	specStepTarget(current isa.Addr, lookup, train, keep bool, target isa.Addr, f *specFrame) isa.Addr
	// squashTarget repairs the buffer to mark m, then replays the
	// window's actual outcomes: training on every frame with an exit
	// when all is set (a CTTB-only predictor), on indirect exits only
	// otherwise (a header predictor, §5.4), and advancing on every frame.
	squashTarget(m SpecMark, w *specWindow, all bool)
	specLog() *undoRing
}

// taskSpecKernel is the fused speculative step of the built-in task
// predictors.
type taskSpecKernel interface {
	SpecTaskPredictor
	// specLogs returns the undo rings and RAS the session checkpoints
	// and commits directly (nil for an absent component); ok is false
	// when a component has no fused kernel, and the session then drives
	// the public protocol.
	specLogs() (exit, buf *undoRing, ras *RAS, ok bool)
	// specStepTask predicts t and speculatively trains every component
	// toward the prediction, recording replay state in f.
	specStepTask(t *tfg.Task, f *specFrame) Prediction
	// squashTask repairs every component to m, replays the window's
	// actual outcomes non-speculatively, and reports an inexact RAS
	// repair.
	squashTask(m TaskMark, w *specWindow) (rasDamaged bool)
}

// Undo-log entry kinds. Each predictor interprets its own entries in
// its RepairExit or RepairTarget drain; kinds are shared so the ring stays one flat struct
// type.
const (
	undoPHT         uint8 = iota // real PHT states[idx]: restore prev word (0 frees the entry)
	undoPathHist                 // PathHistory: restore overwritten slot + head
	undoExitHist                 // ExitHistory register: restore prev word
	undoHRT                      // PerExit hrt[idx]: restore prev word
	undoPerHist                  // IdealPer hists[addr]: restore prev word
	undoIdealState               // ideal exit table slot idx: restore prev word
	undoIdealCreate              // ideal table (exit or CTTB): drop slot idx and its key
	undoTTBEntry                 // CTTB entries[idx]: restore target addr, counter|valid prev
	undoTTBIdeal                 // IdealCTTB slot idx: likewise
)

// specUndo is one logged inverse operation: idx and addr locate the
// entry, prev (with addr, for a CTTB target) holds its prior state. Every
// prior state fits 32 bits — a packed automaton, an exit history of at
// most 2·MaxHistoryDepth bits, a CTTB counter and valid bit — so an
// entry is 16 bytes of plain data the garbage collector never scans.
type specUndo struct {
	kind uint8
	idx  uint32
	addr isa.Addr
	prev uint32
}

// undoRing is a ring of undo entries addressed by absolute position:
// the live entries occupy positions [base, top), mark() returns top, a
// repair pops entries newest-first back to a mark (since, pop), and
// commitTo drops the entries below a mark. Its capacity is a power of
// two that doubles only until it covers the largest in-flight window,
// so steady-state speculation pushes and drains without allocating.
//
// A mark is valid while it lies in the live log [base, top]. Repairing
// or committing to any other mark — one already committed away, or one
// never taken — is a programming error and panics (the package's panic
// contract, see MustDOLC), since it would apply stale inverses or drop
// live ones.
type undoRing struct {
	buf       []specUndo // position p lives at buf[p & (len(buf)-1)]
	base, top uint64
}

func (r *undoRing) mark() SpecMark { return SpecMark(r.top) }

// live returns how many entries the ring holds.
func (r *undoRing) live() uint64 { return r.top - r.base }

// undoCommitSlack is how many entries a fused session lets a ring hold
// before it commits the resolved frames' entries in one go: committing
// only drops dead inverses, so batching it changes nothing but the
// per-step cost (and the ring, at most this plus a window of entries,
// never outgrows its first 64 slots at the lags the workloads run).
const undoCommitSlack = 32

// undoStepMax bounds the entries one logged update pushes on a ring: an
// ideal exit predictor logs a slot creation, the slot's state and its
// history register.
const undoStepMax = 3

// reserve makes room for one logged update's entries. Every logged entry
// point (SpecUpdateExit, SpecTrain, SpecAdvance, the fused steps) calls
// it first, which keeps the growth check out of push.
func (r *undoRing) reserve() {
	if r.live()+undoStepMax > uint64(len(r.buf)) {
		r.grow()
	}
}

func (r *undoRing) push(e specUndo) {
	if r.live() == uint64(len(r.buf)) {
		panic("core: undo log push without reserve")
	}
	r.buf[r.top&uint64(len(r.buf)-1)] = e
	r.top++
}

// grow doubles the ring (at least 64 entries).
//
//go:noinline
func (r *undoRing) grow() {
	nb := make([]specUndo, max(2*len(r.buf), 64))
	for p := r.base; p < r.top; p++ {
		nb[p&uint64(len(nb)-1)] = r.buf[p&uint64(len(r.buf)-1)]
	}
	r.buf = nb
}

// since returns how many live entries are newer than mark m: the number
// of pops that repair the log back to m.
func (r *undoRing) since(m SpecMark) int {
	if uint64(m)-r.base > r.live() {
		panic(markError{"repair", m, SpecMark(r.base), r.mark()})
	}
	return int(r.top - uint64(m))
}

// pop removes the newest entry and returns it; the pointer is valid
// until the next push.
func (r *undoRing) pop() *specUndo {
	r.top--
	return &r.buf[r.top&uint64(len(r.buf)-1)]
}

// commitTo discards entries older than mark m: the speculation they
// guard resolved correctly, so their inverses are dead.
func (r *undoRing) commitTo(m SpecMark) {
	if uint64(m)-r.base > r.live() {
		panic(markError{"commit", m, SpecMark(r.base), r.mark()})
	}
	r.base = uint64(m)
}

// markError is the panic value of a repair or commit to a mark outside
// the live log [lo, hi].
type markError struct {
	op     string
	m      SpecMark
	lo, hi SpecMark
}

func (e markError) Error() string {
	return fmt.Sprintf("core: undo log %s to mark %d outside the live log [%d, %d]", e.op, e.m, e.lo, e.hi)
}

// reset clears the log (predictor Reset).
func (r *undoRing) reset() { r.base, r.top = 0, 0 }

// logPathHist records the inverse of an imminent hist.Push(addr): the
// head position and the ring slot the push will overwrite.
func logPathHist(log *undoRing, h *PathHistory) {
	next := h.head + 1
	if next == len(h.ring) {
		next = 0
	}
	log.push(specUndo{kind: undoPathHist, idx: uint32(h.head), addr: h.ring[next]})
}

// undoPathHistApply reverses one hist.Push: restore the overwritten slot
// and retreat the head.
func undoPathHistApply(h *PathHistory, e *specUndo) {
	h.ring[h.head] = e.addr
	h.head = int(e.idx)
}

// ttbUndo logs entry e, at slot idx, for restoration by undoTTB.
func ttbUndo(kind uint8, idx uint32, e *ttbEntry) specUndo {
	u := specUndo{kind: kind, idx: idx, addr: e.target, prev: uint32(uint8(e.ctr))}
	if e.valid {
		u.prev |= 1 << 8
	}
	return u
}

func undoTTB(e *ttbEntry, u *specUndo) {
	e.target = u.addr
	e.ctr = int8(uint8(u.prev))
	e.valid = u.prev&(1<<8) != 0
}

// exitUndo is a spec-capable exit predictor's undo ring, with the
// protocol methods that touch nothing else.
type exitUndo struct{ undo undoRing }

// MarkExit implements SpecExitPredictor.
func (u *exitUndo) MarkExit() SpecMark { return u.undo.mark() }

// CommitExit implements SpecExitPredictor.
func (u *exitUndo) CommitExit(m SpecMark) { u.undo.commitTo(m) }

func (u *exitUndo) specLog() *undoRing { return &u.undo }

// targetUndo is exitUndo for a target buffer.
type targetUndo struct{ undo undoRing }

// MarkTarget implements SpecTargetBuffer.
func (u *targetUndo) MarkTarget() SpecMark { return u.undo.mark() }

// CommitTarget implements SpecTargetBuffer.
func (u *targetUndo) CommitTarget(m SpecMark) { u.undo.commitTo(m) }

func (u *targetUndo) specLog() *undoRing { return &u.undo }

// Every family below implements the public protocol and the fused
// kernel over its own undo ring, and both repair through one drain
// (RepairExit, RepairTarget), which rebuilds a DOLC older-field
// register once per repair rather than once per undone history push.
//
// The fused step logs only table writes. A history register's repair
// state rides in the frame instead (specFrame.exitAux, bufAux), because
// the squash replays the window's actual outcomes over the same tasks:
//
//   - Path-keyed tables (PATH, ideal PATH, CTTB) push the same task
//     addresses whatever the outcome, so the history already stands
//     where the catch-up would leave it. The frame keeps the step's
//     table index, and the catch-up retrains exactly those entries.
//   - GLOBAL restores the register the oldest frame started from, and
//     PER the slots the window wrote (newest first); the catch-up then
//     runs the ordinary update, recomputing each index. The ideal ones
//     also keep each step's slot and reuse it when the replayed history
//     equals the speculated one (same key, same slot), so a squash looks
//     up only the contexts the wrong prediction actually changed.
//
// The ideal CTTB logs its history pushes and replays in full: its
// speculative train may create the very slot the repair drops again, so
// the catch-up must look the context up afresh.

// --- PathExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *PathExit) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	var idx uint32
	single := t.SingleExit()
	if !(p.opts.SkipSingleExit && single) {
		idx = p.path.index(t.Start)
	}
	p.train(t.Start, single, idx, exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *PathExit) RepairExit(m SpecMark) {
	hist := false
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoPHT:
			p.pht.undo(e.idx, uint16(e.prev))
		case undoPathHist:
			undoPathHistApply(&p.path.hist, e)
			hist = true
		}
	}
	if hist {
		p.path.resync()
	}
}

func (p *PathExit) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	for k := 0; k < w.n; k++ {
		if f := w.at(k); f.exitAux != phtSkipped {
			p.pht.update(uint32(f.exitAux), int(f.exit), nil)
		}
	}
}

// --- GlobalExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *GlobalExit) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	p.train(p.index(t.Start), exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *GlobalExit) RepairExit(m SpecMark) {
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoPHT:
			p.pht.undo(e.idx, uint16(e.prev))
		case undoExitHist:
			p.hist = ExitHistory(e.prev)
		}
	}
}

func (p *GlobalExit) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	p.hist = ExitHistory(w.at(0).exitAux)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.UpdateExit(f.task, int(f.exit))
	}
}

// --- PerExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *PerExit) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	h := p.hrtIndex(t.Start)
	p.train(h, p.phtIndex(t.Start, p.hrt[h]), exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *PerExit) RepairExit(m SpecMark) {
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoPHT:
			p.pht.undo(e.idx, uint16(e.prev))
		case undoHRT:
			p.hrt[e.idx] = ExitHistory(e.prev)
		}
	}
}

func (p *PerExit) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	for k := w.n - 1; k >= 0; k-- {
		aux := w.at(k).exitAux
		p.hrt[aux>>32] = ExitHistory(uint32(aux))
	}
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.UpdateExit(f.task, int(f.exit))
	}
}

// --- IdealGlobal ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealGlobal) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	p.train(p.table.slot(exitKey{addr: t.Start, hist: p.hist}, &p.undo), exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *IdealGlobal) RepairExit(m SpecMark) {
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoIdealState:
			p.table.slots[e.idx] = uint16(e.prev)
		case undoIdealCreate:
			p.table.drop(e.idx)
		case undoExitHist:
			p.hist = ExitHistory(e.prev)
		}
	}
}

func (p *IdealGlobal) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	p.hist = ExitHistory(w.at(0).exitAux >> 32)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		idx := uint32(f.exitAux)
		if p.hist != ExitHistory(f.exitAux>>32) {
			idx = p.table.slot(exitKey{addr: f.task.Start, hist: p.hist}, nil)
		}
		p.train(idx, int(f.exit), nil, nil)
	}
}

// --- IdealPer ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealPer) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	h := p.hists[t.Start]
	p.train(t.Start, h, p.table.slot(exitKey{addr: t.Start, hist: h}, &p.undo), exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *IdealPer) RepairExit(m SpecMark) {
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoIdealState:
			p.table.slots[e.idx] = uint16(e.prev)
		case undoIdealCreate:
			p.table.drop(e.idx)
		case undoPerHist:
			p.hists[e.addr] = ExitHistory(e.prev)
		}
	}
}

func (p *IdealPer) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	for k := w.n - 1; k >= 0; k-- {
		f := w.at(k)
		p.hists[f.task.Start] = ExitHistory(f.exitAux >> 32)
	}
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		addr := f.task.Start
		h := p.hists[addr]
		idx := uint32(f.exitAux)
		if h != ExitHistory(f.exitAux>>32) {
			idx = p.table.slot(exitKey{addr: addr, hist: h}, nil)
		}
		p.train(addr, h, idx, int(f.exit), nil, nil)
	}
}

// --- IdealPath ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealPath) SpecUpdateExit(t *tfg.Task, exit int) {
	p.undo.reserve()
	p.train(t.Start, p.table.slot(MakePathKey(&p.hist, t.Start, p.depth), &p.undo), exit, &p.undo, &p.undo)
}

// RepairExit implements SpecExitPredictor.
func (p *IdealPath) RepairExit(m SpecMark) {
	for n := p.undo.since(m); n > 0; n-- {
		e := p.undo.pop()
		switch e.kind {
		case undoIdealState:
			p.table.slots[e.idx] = uint16(e.prev)
		case undoIdealCreate:
			p.table.drop(e.idx)
		case undoPathHist:
			undoPathHistApply(&p.hist, e)
		}
	}
}

func (p *IdealPath) squashExit(m SpecMark, w *specWindow) {
	p.RepairExit(m)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.table.train(uint32(f.exitAux), int(f.exit), nil)
	}
}

// --- CTTB ---

// SpecTrain implements SpecTargetBuffer.
func (b *CTTB) SpecTrain(current, target isa.Addr) {
	b.undo.reserve()
	b.trainAt(b.path.index(current), target, &b.undo)
}

// SpecAdvance implements SpecTargetBuffer.
func (b *CTTB) SpecAdvance(current isa.Addr) {
	b.undo.reserve()
	logPathHist(&b.undo, &b.path.hist)
	b.path.push(current)
}

// RepairTarget implements SpecTargetBuffer.
func (b *CTTB) RepairTarget(m SpecMark) {
	hist := false
	for n := b.undo.since(m); n > 0; n-- {
		e := b.undo.pop()
		switch e.kind {
		case undoTTBEntry:
			ent := &b.entries[e.idx]
			wasValid := ent.valid
			undoTTB(ent, e)
			if wasValid && !ent.valid {
				b.touched--
			}
		case undoPathHist:
			undoPathHistApply(&b.path.hist, e)
			hist = true
		}
	}
	if hist {
		b.path.resync()
	}
}

func (b *CTTB) squashTarget(m SpecMark, w *specWindow, all bool) {
	b.RepairTarget(m)
	for k := 0; k < w.n; k++ {
		if f := w.at(k); f.trainsBuffer(all) {
			b.trainAt(f.bufAux, f.target, nil)
		}
	}
}

// --- IdealCTTB ---

// SpecTrain implements SpecTargetBuffer.
func (b *IdealCTTB) SpecTrain(current, target isa.Addr) {
	b.undo.reserve()
	i, created := b.entries.lookup(MakePathKey(&b.hist, current, b.depth), ttbEntry{})
	b.trainSlot(i, created, target)
}

// SpecAdvance implements SpecTargetBuffer.
func (b *IdealCTTB) SpecAdvance(current isa.Addr) {
	b.undo.reserve()
	logPathHist(&b.undo, &b.hist)
	b.hist.Push(current)
}

// RepairTarget implements SpecTargetBuffer.
func (b *IdealCTTB) RepairTarget(m SpecMark) {
	for n := b.undo.since(m); n > 0; n-- {
		e := b.undo.pop()
		switch e.kind {
		case undoTTBIdeal:
			undoTTB(&b.entries.slots[e.idx], e)
		case undoIdealCreate:
			b.entries.drop(e.idx)
		case undoPathHist:
			undoPathHistApply(&b.hist, e)
		}
	}
}

func (b *IdealCTTB) squashTarget(m SpecMark, w *specWindow, all bool) {
	b.RepairTarget(m)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		if f.trainsBuffer(all) {
			b.Train(f.task.Start, f.target)
		}
		b.hist.Push(f.task.Start)
	}
}
