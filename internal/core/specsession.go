package core

import (
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
	mark    taskMark
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

// specExitSession drives an exit predictor's fused kernel through
// speculative update: every step predicts, checkpoints and spec-updates
// immediately; actual outcomes resolve in program order `lag` steps
// later. A correct resolution retires the oldest frame (its undo entries
// are committed in batches); a wrong one repairs the predictor back to
// that frame's mark — undoing its own wrong-outcome training *and* every
// younger frame's wrong-path training — then replays all windowed
// actual outcomes non-speculatively (the squash gives outcomes time to
// catch up) and clears the window. The spec evaluators of evalspec.go
// are its only drivers.
//
// With lag 0 each frame resolves inside its own step, so a committed
// speculative update trained the actual outcome and a repaired one is
// replaced by exactly the idealized update: lag-0 spec replay is
// byte-identical to the §3.1 idealized mode (pinned by test).
type specExitSession struct {
	kern exitKernel
	log  *undoRing // kern's undo ring
	lag  int
	win  specWindow

	rollbacks    int
	repairFrames int
}

// newSpecExitSession wraps p for speculative-update replay with the
// given resolution lag (outcomes return `lag` tasks late; 0 resolves
// within the step). It returns a *SpecUnsupportedError when p has no
// fused kernel — notably DelayedUpdate wrappers and fault injectors,
// whose lag/fault semantics compose with speculation at the session
// level instead — or its configuration refuses one.
func newSpecExitSession(p ExitPredictor, lag int) (*specExitSession, error) {
	k, ok := p.(exitKernel)
	if !ok {
		return nil, errNoKernel(p.Name(), "it")
	}
	if err := k.specErr(); err != nil {
		return nil, err
	}
	lag = max(lag, 0)
	return &specExitSession{kern: k, log: k.specLog(), lag: lag, win: newSpecWindow(lag)}, nil
}

// step predicts task t, whose address and exit count come from the
// block dictionary (so the kernel never touches the task itself),
// speculatively trains the predictor with its own prediction, and
// resolves the step that fell due. It returns the prediction for
// scoring.
func (s *specExitSession) step(t *tfg.Task, addr isa.Addr, nexits, actual int) int {
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
				s.commit()
			}
		} else {
			s.resolveOldest()
		}
	}
	return pred
}

// finish resolves every still-windowed outcome at trace end.
func (s *specExitSession) finish() {
	for s.win.n > 0 {
		s.resolveOldest()
	}
}

func (s *specExitSession) resolveOldest() {
	f := s.win.at(0)
	if f.pexit == f.exit {
		// Correct: the oldest frame's speculative training becomes
		// architectural.
		s.win.pop()
		s.commit()
		return
	}
	// Mispredict: squash. Repair to the resolving frame's checkpoint,
	// then apply every windowed actual outcome non-speculatively.
	start, timed := specTimer()
	s.kern.squashExit(f.mark.exit, &s.win)
	s.rollbacks++
	s.repairFrames += s.win.n
	s.win.clear()
	recordSquash(start, timed)
}

// commit commits the undo ring up to the oldest unresolved frame: every
// resolved frame's inverses are dead. A frame's entries end where the
// next frame's begin (or at the log head when it is alone).
func (s *specExitSession) commit() {
	next := s.log.mark()
	if s.win.n > 0 {
		next = s.win.at(0).mark.exit
	}
	s.log.commitTo(next)
}

// specTaskSession drives a full task predictor's fused kernel through
// speculative update; see specExitSession for the windowing and repair
// semantics. A frame resolves correctly only when its *entire*
// predicted outcome matched — exit (when the predictor names one) and
// target — so a committed speculative update is always identical to the
// idealized update it replaces; anything less rolls back. Rollbacks can
// therefore exceed the scored (target-only) miss count.
type specTaskSession struct {
	kern taskSpecKernel
	// The checkpointed state: the components' undo rings (none for an
	// absent component) and RAS (nil when absent).
	exitLog, bufLog *undoRing
	none            undoRing
	ras             *RAS
	lag             int
	win             specWindow

	rollbacks    int
	repairFrames int
	rasDamage    int
}

// newSpecTaskSession wraps p for speculative-update replay with the
// given resolution lag. It returns a *SpecUnsupportedError when p or
// any of its components has no fused kernel, or refuses one.
func newSpecTaskSession(p TaskPredictor, lag int) (*specTaskSession, error) {
	k, ok := p.(taskSpecKernel)
	if !ok {
		return nil, errNoKernel(p.Name(), "it")
	}
	if err := k.specErr(); err != nil {
		return nil, err
	}
	lag = max(lag, 0)
	s := &specTaskSession{kern: k, lag: lag, win: newSpecWindow(lag)}
	s.exitLog, s.bufLog, s.ras = k.specLogs()
	if s.exitLog == nil {
		s.exitLog = &s.none
	}
	if s.bufLog == nil {
		s.bufLog = &s.none
	}
	return s, nil
}

// step predicts task t, speculatively trains the predictor with its own
// prediction, and resolves the step that fell due. It returns the
// prediction for scoring.
func (s *specTaskSession) step(t *tfg.Task, actual Outcome) Prediction {
	f := s.win.push()
	f.task, f.exit, f.target = t, int8(actual.Exit), actual.Target
	f.mark.exit, f.mark.buf = s.exitLog.mark(), s.bufLog.mark()
	if s.ras != nil {
		f.mark.ras = s.ras.Mark()
	}
	pred := s.kern.specStepTask(t, f)
	f.pexit, f.ptarget = int8(pred.Exit), pred.Target
	if s.win.n > s.lag {
		if o := s.win.at(0); o.correct() {
			// The common case, inline (see specExitSession.step).
			s.win.pop()
			if s.exitLog.live() > undoCommitSlack || s.bufLog.live() > undoCommitSlack {
				s.commit()
			}
		} else {
			s.resolveOldest()
		}
	}
	return pred
}

// finish resolves every still-windowed outcome at trace end.
func (s *specTaskSession) finish() {
	for s.win.n > 0 {
		s.resolveOldest()
	}
}

func (s *specTaskSession) resolveOldest() {
	f := s.win.at(0)
	if f.correct() {
		s.win.pop()
		s.commit()
		return
	}
	start, timed := specTimer()
	if s.kern.squashTask(f.mark, &s.win) {
		s.rasDamage++
	}
	s.rollbacks++
	s.repairFrames += s.win.n
	s.win.clear()
	recordSquash(start, timed)
}

// commit commits the undo rings up to the oldest unresolved frame.
func (s *specTaskSession) commit() {
	exit, buf := s.exitLog.mark(), s.bufLog.mark()
	if s.win.n > 0 {
		next := &s.win.at(0).mark
		exit, buf = next.exit, next.buf
	}
	s.exitLog.commitTo(exit)
	s.bufLog.commitTo(buf)
}
