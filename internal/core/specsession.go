package core

import (
	"fmt"
	"time"

	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
	"multiscalar/internal/tfg"
)

// specFrame is one in-flight speculation: the step's task and actual
// outcome (what the catch-up replay after a squash trains), its
// prediction, the checkpoint taken before its speculative update, and
// the fused kernels' replay state. Sessions only step tasks that
// resolved through one of their exits, so task.Exits[exit] is always
// valid. An exit session uses the exit fields and mark.exit only.
type specFrame struct {
	task    *tfg.Task
	mark    TaskMark
	exitAux uint64   // exit kernel's replay state (see specupdate.go)
	bufAux  uint32   // target buffer kernel's replay state
	target  isa.Addr // actual next-task address
	ptarget isa.Addr // predicted next-task address
	exit    int8     // actual exit
	pexit   int8     // predicted exit (-1: the predictor names none)
}

// correct reports whether a task frame's entire predicted outcome —
// exit (when the predictor names one) and target — matched.
func (f *specFrame) correct() bool {
	return f.ptarget == f.target && (f.pexit < 0 || f.pexit == f.exit)
}

// trainsBuffer reports whether the frame's actual outcome trains a
// target buffer: every step in a CTTB-only predictor (all), only
// indirect exits in a header predictor (§5.4).
func (f *specFrame) trainsBuffer(all bool) bool {
	return all || f.task.Exits[f.exit].Kind.IsIndirect()
}

// specWindow is a session's resolution window: a power-of-two ring of
// the frames not yet resolved, oldest first.
type specWindow struct {
	frames []specFrame
	head   int
	n      int
}

// newSpecWindow returns a window for up to lag+1 in-flight frames.
func newSpecWindow(lag int) specWindow {
	size := 1
	for size < lag+1 {
		size *= 2
	}
	return specWindow{frames: make([]specFrame, size)}
}

// at returns the k-th oldest frame.
func (w *specWindow) at(k int) *specFrame {
	return &w.frames[(w.head+k)&(len(w.frames)-1)]
}

// push claims the slot of a new youngest frame.
func (w *specWindow) push() *specFrame {
	f := w.at(w.n)
	w.n++
	return f
}

// pop retires the oldest frame.
func (w *specWindow) pop() {
	w.head = (w.head + 1) & (len(w.frames) - 1)
	w.n--
}

func (w *specWindow) clear() { w.head, w.n = 0, 0 }

// specTimer measures one squash when observability is on.
func specTimer() (start time.Time, timed bool) {
	if obs.On() {
		return time.Now(), true //detlint:allow det-time (obs-gated duration metric; never rendered deterministically)
	}
	return start, false
}

func recordSquash(start time.Time, timed bool) {
	if timed {
		obsSpecRepairNanos.Add(time.Since(start).Nanoseconds())
		obsSpecRollbacks.Inc()
	}
}

// SpecExitSession drives an exit predictor through the speculative-
// update protocol: every Step predicts, checkpoints and spec-updates
// immediately; actual outcomes resolve in program order `lag` steps
// later. A correct resolution commits the oldest frame's undo entries; a
// wrong one repairs the predictor back to that frame's mark — undoing
// its own wrong-outcome training *and* every younger frame's wrong-path
// training — then replays all windowed actual outcomes non-speculatively
// (the squash gives outcomes time to catch up) and clears the window.
//
// A built-in predictor runs the fused kernel: one call per step, commits
// straight on its undo ring, one call per squash. Any other
// SpecExitPredictor runs the public protocol, with the same result.
//
// With lag 0 each frame resolves inside its own Step, so a committed
// speculative update trained the actual outcome and a repaired one is
// replaced by exactly the idealized update: lag-0 spec replay is
// byte-identical to the §3.1 idealized mode (pinned by test).
type SpecExitSession struct {
	pred SpecExitPredictor
	kern exitSpecKernel // fused path; nil drives the public protocol
	log  *undoRing      // kern's undo ring
	lag  int
	win  specWindow

	rollbacks    int
	repairFrames int
}

// NewSpecExitSession wraps p for speculative-update replay with the
// given resolution lag (outcomes return `lag` tasks late; 0 resolves
// within the step). It fails if p does not support checkpoint repair —
// notably DelayedUpdate wrappers and fault injectors, whose lag/fault
// semantics compose with speculation at the session level instead.
func NewSpecExitSession(p ExitPredictor, lag int) (*SpecExitSession, error) {
	return newSpecExitSession(p, lag, true)
}

// newSpecExitSession is NewSpecExitSession; fused=false drives the
// public protocol even for a built-in predictor (the differential
// oracle's session).
func newSpecExitSession(p ExitPredictor, lag int, fused bool) (*SpecExitSession, error) {
	sp, ok := p.(SpecExitPredictor)
	if !ok {
		return nil, fmt.Errorf("core: exit predictor %s does not support speculative update", p.Name())
	}
	if c, ok := p.(interface{ specErr() error }); ok {
		if err := c.specErr(); err != nil {
			return nil, err
		}
	}
	lag = max(lag, 0)
	s := &SpecExitSession{pred: sp, lag: lag, win: newSpecWindow(lag)}
	if k, ok := p.(exitSpecKernel); ok && fused {
		s.kern, s.log = k, k.specLog()
	}
	return s, nil
}

// Step predicts task t, speculatively trains the predictor with its own
// prediction, and resolves the step that fell due. It returns the
// prediction for scoring.
func (s *SpecExitSession) Step(t *tfg.Task, actual int) int {
	if s.kern != nil {
		return s.step(t, t.Start, t.NumExits(), actual)
	}
	f := s.win.push()
	f.task, f.exit = t, int8(actual)
	pred := s.pred.PredictExit(t)
	f.mark.exit = s.pred.MarkExit()
	s.pred.SpecUpdateExit(t, pred)
	f.pexit = int8(pred)
	if s.win.n > s.lag {
		s.resolveOldest()
	}
	return pred
}

// step is Step's fused path, given the task's address and exit count
// (as the block dictionary carries them, so the kernel never touches
// the task itself).
func (s *SpecExitSession) step(t *tfg.Task, addr isa.Addr, nexits, actual int) int {
	f := s.win.push()
	f.task, f.exit = t, int8(actual)
	f.mark.exit = s.log.mark()
	pred := s.kern.specStepExit(addr, nexits, f)
	f.pexit = int8(pred)
	if s.win.n > s.lag {
		if o := s.win.at(0); o.pexit == o.exit {
			// The common case, inline: retire the frame and commit its
			// entries once enough of them have piled up.
			s.win.pop()
			if s.log.live() > undoCommitSlack {
				s.commitFused()
			}
		} else {
			s.resolveOldest()
		}
	}
	return pred
}

// Finish resolves every still-windowed outcome at trace end.
func (s *SpecExitSession) Finish() {
	for s.win.n > 0 {
		s.resolveOldest()
	}
}

func (s *SpecExitSession) resolveOldest() {
	f := s.win.at(0)
	if f.pexit == f.exit {
		// Correct: the oldest frame's speculative training becomes
		// architectural. Its undo entries end where the next frame's
		// begin (or at the current log head when it is alone).
		s.win.pop()
		if s.kern != nil {
			s.commitFused()
			return
		}
		next := s.pred.MarkExit()
		if s.win.n > 0 {
			next = s.win.at(0).mark.exit
		}
		s.pred.CommitExit(next)
		return
	}
	// Mispredict: squash. Repair to the resolving frame's checkpoint,
	// then apply every windowed actual outcome non-speculatively.
	start, timed := specTimer()
	if s.kern != nil {
		s.kern.squashExit(f.mark.exit, &s.win)
	} else {
		s.pred.RepairExit(f.mark.exit)
		for k := 0; k < s.win.n; k++ {
			g := s.win.at(k)
			s.pred.UpdateExit(g.task, int(g.exit))
		}
	}
	s.rollbacks++
	s.repairFrames += s.win.n
	s.win.clear()
	recordSquash(start, timed)
}

// commitFused commits a fused session's undo ring up to the oldest
// unresolved frame: every resolved frame's inverses are dead.
func (s *SpecExitSession) commitFused() {
	next := s.log.mark()
	if s.win.n > 0 {
		next = s.win.at(0).mark.exit
	}
	s.log.commitTo(next)
}

// Rollbacks returns how many mispredict repairs the session performed.
func (s *SpecExitSession) Rollbacks() int { return s.rollbacks }

// RepairFrames returns the total frames squashed across all repairs.
func (s *SpecExitSession) RepairFrames() int { return s.repairFrames }

// SpecTaskSession drives a full task predictor through the speculative-
// update protocol; see SpecExitSession for the windowing, repair and
// fused-kernel semantics. A frame resolves correctly only when its
// *entire* predicted outcome matched — exit (when the predictor names
// one) and target — so a committed speculative update is always
// identical to the idealized update it replaces; anything less rolls
// back. Rollbacks can therefore exceed the scored (target-only) miss
// count.
type SpecTaskSession struct {
	pred SpecTaskPredictor
	kern taskSpecKernel // fused path; nil drives the public protocol
	// The fused path's checkpointed state: the components' undo rings
	// (none for an absent component) and RAS (nil when absent).
	exitLog, bufLog *undoRing
	none            undoRing
	ras             *RAS
	lag             int
	win             specWindow

	rollbacks    int
	repairFrames int
	rasDamage    int
}

// NewSpecTaskSession wraps p for speculative-update replay with the
// given resolution lag. It fails if p or any of its components does not
// support checkpoint repair.
func NewSpecTaskSession(p TaskPredictor, lag int) (*SpecTaskSession, error) {
	return newSpecTaskSession(p, lag, true)
}

// newSpecTaskSession is NewSpecTaskSession; fused=false drives the
// public protocol even for a built-in predictor.
func newSpecTaskSession(p TaskPredictor, lag int, fused bool) (*SpecTaskSession, error) {
	sp, ok := p.(SpecTaskPredictor)
	if !ok {
		return nil, fmt.Errorf("core: task predictor %s does not support speculative update", p.Name())
	}
	if init, ok := p.(interface{ specInit() error }); ok {
		if err := init.specInit(); err != nil {
			return nil, err
		}
	}
	lag = max(lag, 0)
	s := &SpecTaskSession{pred: sp, lag: lag, win: newSpecWindow(lag)}
	if k, ok := p.(taskSpecKernel); ok && fused {
		if exit, buf, ras, ok := k.specLogs(); ok {
			s.kern, s.exitLog, s.bufLog, s.ras = k, exit, buf, ras
			if exit == nil {
				s.exitLog = &s.none
			}
			if buf == nil {
				s.bufLog = &s.none
			}
		}
	}
	return s, nil
}

// Step predicts task t, speculatively trains the predictor with its own
// prediction, and resolves the step that fell due. It returns the
// prediction for scoring.
func (s *SpecTaskSession) Step(t *tfg.Task, actual Outcome) Prediction {
	f := s.win.push()
	f.task, f.exit, f.target = t, int8(actual.Exit), actual.Target
	var pred Prediction
	if s.kern != nil {
		f.mark.exit, f.mark.buf = s.exitLog.mark(), s.bufLog.mark()
		if s.ras != nil {
			f.mark.ras = s.ras.Mark()
		}
		pred = s.kern.specStepTask(t, f)
	} else {
		pred = s.pred.Predict(t)
		f.mark = s.pred.MarkTask()
		s.pred.SpecUpdate(t, pred)
	}
	f.pexit, f.ptarget = int8(pred.Exit), pred.Target
	if s.win.n > s.lag {
		if o := s.win.at(0); s.kern != nil && o.correct() {
			// The common case, inline (see SpecExitSession.Step).
			s.win.pop()
			if s.exitLog.live() > undoCommitSlack || s.bufLog.live() > undoCommitSlack {
				s.commitFused()
			}
		} else {
			s.resolveOldest()
		}
	}
	return pred
}

// Finish resolves every still-windowed outcome at trace end.
func (s *SpecTaskSession) Finish() {
	for s.win.n > 0 {
		s.resolveOldest()
	}
}

func (s *SpecTaskSession) resolveOldest() {
	f := s.win.at(0)
	if f.correct() {
		s.win.pop()
		if s.kern != nil {
			s.commitFused()
			return
		}
		next := s.pred.MarkTask()
		if s.win.n > 0 {
			next = s.win.at(0).mark
		}
		s.pred.CommitTask(next)
		return
	}
	start, timed := specTimer()
	var damaged bool
	if s.kern != nil {
		damaged = s.kern.squashTask(f.mark, &s.win)
	} else {
		damaged = s.pred.RepairTask(f.mark)
		for k := 0; k < s.win.n; k++ {
			g := s.win.at(k)
			s.pred.Update(g.task, Outcome{Exit: int(g.exit), Target: g.target})
		}
	}
	if damaged {
		s.rasDamage++
	}
	s.rollbacks++
	s.repairFrames += s.win.n
	s.win.clear()
	recordSquash(start, timed)
}

// commitFused commits a fused session's undo rings up to the oldest
// unresolved frame.
func (s *SpecTaskSession) commitFused() {
	exit, buf := s.exitLog.mark(), s.bufLog.mark()
	if s.win.n > 0 {
		next := &s.win.at(0).mark
		exit, buf = next.exit, next.buf
	}
	s.exitLog.commitTo(exit)
	s.bufLog.commitTo(buf)
}

// Rollbacks returns how many mispredict repairs the session performed.
func (s *SpecTaskSession) Rollbacks() int { return s.rollbacks }

// RepairFrames returns the total frames squashed across all repairs.
func (s *SpecTaskSession) RepairFrames() int { return s.repairFrames }

// RASDamage returns how many repairs found live RAS entries clobbered by
// deep wrong-path pushes (inexact repairs — see RAS.Repair).
func (s *SpecTaskSession) RASDamage() int { return s.rasDamage }
