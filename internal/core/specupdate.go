package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Speculative update with checkpoint repair — the realistic replacement
// for the paper's §3.1 idealization (immediate, non-speculative predictor
// training). In this mode the sequencer trains its predictors at
// prediction time with the *predicted* outcome, the way the XIOSim fetch
// stage calls spec_update before the branch resolves, and repairs them
// when a misprediction resolves.
//
// Every built-in predictor implements it as a fused kernel
// (exitKernel, targetKernel, taskSpecKernel), which the
// specExitSession / specTaskSession drivers (specsession.go) run: one
// call per step predicts and trains toward the prediction with a single
// table index, logging each table write on the predictor's undo ring;
// the session reads checkpoints off the ring and commits on it directly;
// and one call per squash drains the ring back to the mispredicted
// frame's mark and replays the window's actual outcomes. A predictor
// without a kernel is refused with a *SpecUnsupportedError.
//
// Repair is a bounded drain of an in-place undo log — never a
// re-simulation — so rollback-heavy replay stays allocation-free per
// step. Every logged write records the exact prior word of its entry,
// so draining newest to oldest restores the tables precisely to the
// mark. What survives a repair is what hardware cannot take back:
// entries a wrong-path *lookup* allocated (PHT entries and ideal
// contexts materialized on first touch, left in their fresh state, so
// States() in spec mode counts wrong-path pollution too), the tie-break
// RNG's draws, and whatever deep wrong-path pushes clobbered in the RAS
// below its mark (RAS.Repair reports it). specref_test.go holds a
// reference model that restores whole state from an architectural twin
// instead of undo-logging, and carries exactly these survivors over.

// specMark is a predictor checkpoint: an absolute position in the
// predictor's undo log, captured before a speculative update.
type specMark uint64

// taskMark is the composed checkpoint of a full task predictor: the
// exit predictor's and target buffer's undo-log marks plus the RAS
// repair point.
type taskMark struct {
	exit specMark
	buf  specMark
	ras  RASMark
}

// exitKernel is the pair of fused steps of the built-in exit
// predictors: the idealized one the block kernels replay, and the
// speculative one a session runs.
type exitKernel interface {
	ExitPredictor
	// replayExitStep is PredictExit for the task of ent followed by
	// UpdateExit with the actual exit, computing the table index or ideal
	// key once for both; it returns the prediction.
	replayExitStep(ent *trace.DictEntry, exit int) int
	// specStepExit predicts the task at addr, which has nexits exits,
	// and trains toward that prediction through the same index→train
	// helper as UpdateExit, computing the table index or ideal key once.
	// It logs the table write on specLog and records in f what the
	// catch-up needs instead of the history.
	specStepExit(addr isa.Addr, nexits int, f *specFrame) int
	// squashExit repairs the predictor to mark m, then replays the
	// window's actual exits non-speculatively.
	squashExit(m specMark, w *specWindow)
	// specLog returns the undo ring the speculative updates log on.
	specLog() *undoRing
	// specErr reports why the predictor cannot run under a session, or
	// nil.
	specErr() error
}

// targetKernel is the pair of fused steps of the built-in target
// buffers.
type targetKernel interface {
	TargetBuffer
	// replayTargetStep is one idealized buffer step for current: Lookup
	// when lookup (target is zero on a miss), Train toward actual when
	// train, both at one index or key, then Advance.
	replayTargetStep(current isa.Addr, lookup, train bool, actual isa.Addr) (target isa.Addr, hit bool)
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
	squashTarget(m specMark, w *specWindow, all bool)
	specLog() *undoRing
}

// taskSpecKernel is the fused speculative step of the built-in task
// predictors.
type taskSpecKernel interface {
	TaskPredictor
	// specErr reports why the predictor — or one of its components —
	// cannot run under a session, or nil.
	specErr() error
	// specLogs returns the undo rings and RAS the session checkpoints
	// and commits directly (nil for an absent component). It is valid
	// once specErr has returned nil.
	specLogs() (exit, buf *undoRing, ras *RAS)
	// specStepTask predicts t and speculatively trains every component
	// toward the prediction, recording replay state in f.
	specStepTask(t *tfg.Task, f *specFrame) Prediction
	// squashTask repairs every component to m, replays the window's
	// actual outcomes non-speculatively, and reports an inexact RAS
	// repair.
	squashTask(m taskMark, w *specWindow) (rasDamaged bool)
}

// SpecUnsupportedError is a session's refusal of a predictor that cannot
// run under speculative update: one without a fused kernel (a predictor
// from outside this package, or a wrapper such as DelayedUpdate or a
// fault injector, whose timing or fault model would have to checkpoint
// too), or one whose configuration models update timing itself.
type SpecUnsupportedError struct {
	Predictor string // name of the refused predictor
	Reason    string
}

func (e *SpecUnsupportedError) Error() string {
	return fmt.Sprintf("core: %s does not support speculative update: %s", e.Predictor, e.Reason)
}

// errNoKernel refuses a predictor (or a component of one) without a
// fused kernel.
func errNoKernel(pred, component string) error {
	return &SpecUnsupportedError{Predictor: pred, Reason: component + " has no speculative-update kernel"}
}

// Undo-log entry kinds. Only the ideal CTTB's drain tells them apart
// (every other ring holds table writes of a single kind); they are
// shared so the ring stays one flat struct type.
const (
	undoPHT         uint8 = iota // real PHT states[idx]: restore prev word
	undoIdealState               // ideal exit table slot idx: restore prev word
	undoTTBEntry                 // CTTB entries[idx]: restore target addr, counter|valid prev
	undoTTBIdeal                 // IdealCTTB slot idx: likewise
	undoIdealCreate              // IdealCTTB: drop slot idx and its key
	undoPathHist                 // IdealCTTB pathReg: unpush, restoring the evicted field prev
)

// specUndo is one logged inverse operation: idx and addr locate the
// entry, prev (with addr, for a CTTB target) holds its prior state. Every
// prior state fits 32 bits — a packed automaton, a CTTB counter and
// valid bit — so an entry is 16 bytes of plain data the garbage
// collector never scans.
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

func (r *undoRing) mark() specMark { return specMark(r.top) }

// live returns how many entries the ring holds.
func (r *undoRing) live() uint64 { return r.top - r.base }

// undoCommitSlack is how many entries a session lets a ring hold before
// it commits the resolved frames' entries in one go: committing only
// drops dead inverses, so batching it changes nothing but the per-step
// cost (and the ring, at most this plus a window of entries, never
// outgrows its first 64 slots at the lags the workloads run).
const undoCommitSlack = 32

// undoStepMax bounds the entries one fused step pushes on a ring: the
// ideal CTTB logs a slot's state or creation and its history push.
const undoStepMax = 2

// reserve makes room for one fused step's entries. Every step calls it
// first, which keeps the growth check out of push.
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
func (r *undoRing) since(m specMark) int {
	if uint64(m)-r.base > r.live() {
		panic(markError{"repair", m, specMark(r.base), r.mark()})
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
func (r *undoRing) commitTo(m specMark) {
	if uint64(m)-r.base > r.live() {
		panic(markError{"commit", m, specMark(r.base), r.mark()})
	}
	r.base = uint64(m)
}

// markError is the panic value of a repair or commit to a mark outside
// the live log [lo, hi].
type markError struct {
	op     string
	m      specMark
	lo, hi specMark
}

func (e markError) Error() string {
	return fmt.Sprintf("core: undo log %s to mark %d outside the live log [%d, %d]", e.op, e.m, e.lo, e.hi)
}

// reset clears the log (predictor Reset).
func (r *undoRing) reset() { r.base, r.top = 0, 0 }

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

// undoLog is the undo ring every built-in predictor and buffer embeds
// for its fused kernel.
type undoLog struct{ undo undoRing }

func (u *undoLog) specLog() *undoRing { return &u.undo }

// specErr implements exitKernel: a built-in exit kernel runs under
// any session unless its predictor overrides this (PathExit does).
func (u *undoLog) specErr() error { return nil }

// drain pops log back to mark m, restoring each logged PHT word. A fused
// step trains only the entry its own lookup has just allocated or found,
// so no logged word is zero and a drain never frees an entry.
func (t *pht) drain(log *undoRing, m specMark) {
	for n := log.since(m); n > 0; n-- {
		e := log.pop()
		t.states[e.idx] = uint16(e.prev)
	}
}

// drain is pht.drain for an ideal table: its contexts are created by
// lookups, never by the logged trains, so each survives the drain.
func (t *idealPHT) drain(log *undoRing, m specMark) {
	for n := log.since(m); n > 0; n-- {
		e := log.pop()
		t.slots[e.idx] = uint16(e.prev)
	}
}

// Each family's squash drains its ring and then runs the catch-up. The
// fused step logs only table writes. A history register's repair state
// rides in the frame instead (specFrame.exitAux, bufAux), because the
// squash replays the window's actual outcomes over the same tasks:
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

func (p *PathExit) squashExit(m specMark, w *specWindow) {
	p.pht.drain(&p.undo, m)
	for k := 0; k < w.n; k++ {
		if f := w.at(k); f.exitAux != phtSkipped {
			p.pht.update(uint32(f.exitAux), int(f.exit), nil)
		}
	}
}

func (p *GlobalExit) squashExit(m specMark, w *specWindow) {
	p.pht.drain(&p.undo, m)
	p.hist = ExitHistory(w.at(0).exitAux)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.UpdateExit(f.task, int(f.exit))
	}
}

func (p *PerExit) squashExit(m specMark, w *specWindow) {
	p.pht.drain(&p.undo, m)
	for k := w.n - 1; k >= 0; k-- {
		aux := w.at(k).exitAux
		p.hrt[aux>>32] = ExitHistory(uint32(aux))
	}
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.UpdateExit(f.task, int(f.exit))
	}
}

func (p *IdealGlobal) squashExit(m specMark, w *specWindow) {
	p.table.drain(&p.undo, m)
	p.hist = ExitHistory(w.at(0).exitAux >> 32)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		idx := uint32(f.exitAux)
		if p.hist != ExitHistory(f.exitAux>>32) {
			idx = p.table.slot(exitCtx(f.task.Start, p.hist))
		}
		p.train(idx, int(f.exit), nil)
	}
}

func (p *IdealPer) squashExit(m specMark, w *specWindow) {
	p.table.drain(&p.undo, m)
	for k := w.n - 1; k >= 0; k-- {
		f := w.at(k)
		*p.hist(f.task.Start) = ExitHistory(f.exitAux >> 32)
	}
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		addr := f.task.Start
		h := p.hist(addr)
		idx := uint32(f.exitAux)
		if *h != ExitHistory(f.exitAux>>32) {
			idx = p.table.slot(exitCtx(addr, *h))
		}
		p.train(h, idx, int(f.exit), nil)
	}
}

func (p *IdealPath) squashExit(m specMark, w *specWindow) {
	p.table.drain(&p.undo, m)
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		p.table.train(uint32(f.exitAux), int(f.exit), nil)
	}
}

func (b *CTTB) squashTarget(m specMark, w *specWindow, all bool) {
	for n := b.undo.since(m); n > 0; n-- {
		e := b.undo.pop()
		ent := &b.entries[e.idx]
		wasValid := ent.valid
		undoTTB(ent, e)
		if wasValid && !ent.valid {
			b.touched--
		}
	}
	for k := 0; k < w.n; k++ {
		if f := w.at(k); f.trainsBuffer(all) {
			b.trainAt(f.bufAux, f.target, nil)
		}
	}
}

func (b *IdealCTTB) squashTarget(m specMark, w *specWindow, all bool) {
	for n := b.undo.since(m); n > 0; n-- {
		e := b.undo.pop()
		switch e.kind {
		case undoTTBIdeal:
			undoTTB(&b.entries[e.idx], e)
		case undoIdealCreate:
			if b.ctx.drop(e.idx) {
				b.entries = b.entries[:e.idx]
			}
		case undoPathHist:
			b.path.unpush(e.prev)
		}
	}
	for k := 0; k < w.n; k++ {
		f := w.at(k)
		if f.trainsBuffer(all) {
			b.Train(f.task.Start, f.target)
		}
		b.path.push(f.task.Start)
	}
}
