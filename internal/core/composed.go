package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// HeaderPredictor is the paper's full task predictor (§5.3): an exit
// predictor chooses one of the header's exits; the next-task address then
// comes from the header itself (BRANCH/CALL exits), the return address
// stack (RETURN exits), or the correlated target buffer (indirect exits).
type HeaderPredictor struct {
	name string
	exit ExitPredictor
	ras  *RAS
	buf  TargetBuffer

	// Spec-capable views of exit/buf, resolved at construction: the
	// public protocol's and the fused kernels' (nil where a component
	// lacks one; specInit refuses a session when the public one is
	// missing).
	specExit SpecExitPredictor
	specBuf  SpecTargetBuffer
	exitK    exitSpecKernel
	bufK     targetSpecKernel
}

// NewHeaderPredictor composes a task predictor from an exit predictor, a
// RAS and a target buffer for indirect exits. Any of ras/buf may be nil,
// in which case the corresponding exit types are predicted with an
// invalid (zero) target — useful for isolating component contributions.
func NewHeaderPredictor(name string, exit ExitPredictor, ras *RAS, buf TargetBuffer) *HeaderPredictor {
	if name == "" {
		name = fmt.Sprintf("header(%s)", exit.Name())
	}
	p := &HeaderPredictor{name: name, exit: exit, ras: ras, buf: buf}
	p.specExit, _ = exit.(SpecExitPredictor)
	p.exitK, _ = exit.(exitSpecKernel)
	if buf != nil {
		p.specBuf, _ = buf.(SpecTargetBuffer)
		p.bufK, _ = buf.(targetSpecKernel)
	}
	return p
}

// Name implements TaskPredictor.
func (p *HeaderPredictor) Name() string { return p.name }

// Exit returns the composed exit predictor (for statistics access).
func (p *HeaderPredictor) Exit() ExitPredictor { return p.exit }

// RAS returns the composed return address stack, or nil.
func (p *HeaderPredictor) RAS() *RAS { return p.ras }

// Buffer returns the composed target buffer, or nil.
func (p *HeaderPredictor) Buffer() TargetBuffer { return p.buf }

// Reset implements TaskPredictor.
func (p *HeaderPredictor) Reset() {
	p.exit.Reset()
	if p.ras != nil {
		p.ras.Reset()
	}
	if p.buf != nil {
		p.buf.Reset()
	}
}

// Predict implements TaskPredictor.
func (p *HeaderPredictor) Predict(t *tfg.Task) Prediction {
	if t.NumExits() == 0 {
		return Prediction{Exit: 0, Target: 0}
	}
	e := p.exit.PredictExit(t)
	spec := t.Exits[e]
	pred := Prediction{Exit: e}
	switch {
	case spec.HasTarget:
		pred.Target = spec.Target
	case spec.Kind.IsIndirect():
		if p.buf != nil {
			pred.Target, _ = p.buf.Lookup(t.Start)
		}
	default: // RETURN
		if p.ras != nil {
			pred.Target, _ = p.ras.Top()
		}
	}
	return pred
}

// Update implements TaskPredictor. Per the paper's functional-simulation
// methodology, training is immediate and non-speculative: the RAS is
// maintained with actual call/return exits, and the CTTB is trained only
// by actual indirect exits (exit types do not compete for buffer space in
// the header-based configuration, §5.4).
func (p *HeaderPredictor) Update(t *tfg.Task, o Outcome) {
	if t.NumExits() > 0 {
		p.exit.UpdateExit(t, o.Exit)
		spec := t.Exits[o.Exit]
		if spec.Kind.IsIndirect() && p.buf != nil {
			p.buf.Train(t.Start, o.Target)
		}
		if p.ras != nil {
			switch {
			case spec.Kind.IsCall():
				p.ras.Push(spec.Return)
			case spec.Kind == isa.KindReturn:
				p.ras.Pop()
			}
		}
	}
	if p.buf != nil {
		p.buf.Advance(t.Start)
	}
}

// trainRAS pushes or pops the return address stack along an exit's
// control kind, as Update does inline.
func (p *HeaderPredictor) trainRAS(spec *tfg.ExitSpec) {
	switch {
	case spec.Kind.IsCall():
		p.ras.Push(spec.Return)
	case spec.Kind == isa.KindReturn:
		p.ras.Pop()
	}
}

// specInit checks that every component can checkpoint-repair; a
// speculative-update session calls it once at adoption and fails cleanly
// when one cannot.
func (p *HeaderPredictor) specInit() error {
	if p.specExit == nil {
		return fmt.Errorf("core: %s: exit predictor %s does not support speculative update", p.name, p.exit.Name())
	}
	if c, ok := p.exit.(interface{ specErr() error }); ok {
		if err := c.specErr(); err != nil {
			return err
		}
	}
	if p.buf != nil && p.specBuf == nil {
		return fmt.Errorf("core: %s: target buffer %s does not support speculative update", p.name, p.buf.Name())
	}
	return nil
}

// SpecUpdate implements SpecTaskPredictor: the same component training
// as Update, driven by the *predicted* outcome — the exit predictor
// trains toward the predicted exit, the CTTB toward the predicted target
// when the predicted exit is indirect, and the RAS pushes/pops along the
// predicted control kind (the spec_update-at-fetch discipline; mostly
// relevant for the RAS, exactly as in XIOSim). Every mutation is
// undo-logged for RepairTask.
func (p *HeaderPredictor) SpecUpdate(t *tfg.Task, pr Prediction) {
	if t.NumExits() > 0 {
		p.specExit.SpecUpdateExit(t, pr.Exit)
		spec := t.Exits[pr.Exit]
		if spec.Kind.IsIndirect() && p.specBuf != nil {
			p.specBuf.SpecTrain(t.Start, pr.Target)
		}
		if p.ras != nil {
			p.trainRAS(&spec)
		}
	}
	if p.specBuf != nil {
		p.specBuf.SpecAdvance(t.Start)
	}
}

// MarkTask implements SpecTaskPredictor.
func (p *HeaderPredictor) MarkTask() TaskMark {
	m := TaskMark{exit: p.specExit.MarkExit()}
	if p.specBuf != nil {
		m.buf = p.specBuf.MarkTarget()
	}
	if p.ras != nil {
		m.ras = p.ras.Mark()
	}
	return m
}

// RepairTask implements SpecTaskPredictor. It reports whether the RAS
// repair was inexact (live entries clobbered beyond the mark's reach).
func (p *HeaderPredictor) RepairTask(m TaskMark) bool {
	p.specExit.RepairExit(m.exit)
	if p.specBuf != nil {
		p.specBuf.RepairTarget(m.buf)
	}
	if p.ras != nil {
		return p.ras.Repair(m.ras)
	}
	return false
}

// CommitTask implements SpecTaskPredictor.
func (p *HeaderPredictor) CommitTask(m TaskMark) {
	p.specExit.CommitExit(m.exit)
	if p.specBuf != nil {
		p.specBuf.CommitTarget(m.buf)
	}
}

// specLogs implements taskSpecKernel: fused when the exit predictor and
// the buffer (if any) are built-in.
func (p *HeaderPredictor) specLogs() (exit, buf *undoRing, ras *RAS, ok bool) {
	if p.exitK == nil || (p.buf != nil && p.bufK == nil) {
		return nil, nil, nil, false
	}
	if p.bufK != nil {
		buf = p.bufK.specLog()
	}
	return p.exitK.specLog(), buf, p.ras, true
}

// specStepTask implements taskSpecKernel: Predict and SpecUpdate in one
// pass, each component indexed once.
func (p *HeaderPredictor) specStepTask(t *tfg.Task, f *specFrame) Prediction {
	e := p.exitK.specStepExit(t.Start, len(t.Exits), f)
	spec := &t.Exits[e]
	pred := Prediction{Exit: e}
	indirect := spec.Kind.IsIndirect()
	switch {
	case spec.HasTarget:
		pred.Target = spec.Target
	case !indirect && p.ras != nil: // RETURN
		pred.Target, _ = p.ras.Top()
	}
	if p.ras != nil {
		p.trainRAS(spec)
	}
	if p.bufK != nil {
		// Only a task with an indirect exit can train the buffer, now
		// or in a catch-up.
		pred.Target = p.bufK.specStepTarget(t.Start, indirect && !spec.HasTarget, indirect, t.HasIndirectExit(), pred.Target, f)
	}
	return pred
}

// squashTask implements taskSpecKernel. The components hold disjoint
// state, so each repairs and replays the whole window in turn.
func (p *HeaderPredictor) squashTask(m TaskMark, w *specWindow) (rasDamaged bool) {
	p.exitK.squashExit(m.exit, w)
	if p.bufK != nil {
		p.bufK.squashTarget(m.buf, w, false)
	}
	if p.ras != nil {
		rasDamaged = p.ras.Repair(m.ras)
		for k := 0; k < w.n; k++ {
			f := w.at(k)
			p.trainRAS(&f.task.Exits[f.exit])
		}
	}
	return rasDamaged
}

// CTTBOnly is the header-less task predictor of §5.4 / Table 3: the next
// task address is predicted directly from a (large) correlated target
// buffer for every task step, with all exit types competing for buffer
// space and no RAS.
type CTTBOnly struct {
	name string
	buf  TargetBuffer

	// Spec-capable views of buf, resolved at construction (see
	// HeaderPredictor).
	specBuf SpecTargetBuffer
	bufK    targetSpecKernel
}

// NewCTTBOnly builds a CTTB-only task predictor over the given buffer.
func NewCTTBOnly(buf TargetBuffer) *CTTBOnly {
	p := &CTTBOnly{name: fmt.Sprintf("cttb-only(%s)", buf.Name()), buf: buf}
	p.specBuf, _ = buf.(SpecTargetBuffer)
	p.bufK, _ = buf.(targetSpecKernel)
	return p
}

// Name implements TaskPredictor.
func (p *CTTBOnly) Name() string { return p.name }

// Buffer returns the underlying target buffer.
func (p *CTTBOnly) Buffer() TargetBuffer { return p.buf }

// Reset implements TaskPredictor.
func (p *CTTBOnly) Reset() { p.buf.Reset() }

// Predict implements TaskPredictor. The exit number is unknown to a
// header-less predictor; Exit is reported as -1 and only the target is
// meaningful.
func (p *CTTBOnly) Predict(t *tfg.Task) Prediction {
	target, _ := p.buf.Lookup(t.Start)
	return Prediction{Exit: -1, Target: target}
}

// Update implements TaskPredictor: every step trains the buffer (all
// control-flow types compete for space — the source of the extra
// destructive aliasing and compulsory misses the paper describes).
func (p *CTTBOnly) Update(t *tfg.Task, o Outcome) {
	if t.NumExits() > 0 {
		p.buf.Train(t.Start, o.Target)
	}
	p.buf.Advance(t.Start)
}

// specInit checks the buffer can checkpoint-repair; see HeaderPredictor.
func (p *CTTBOnly) specInit() error {
	if p.specBuf == nil {
		return fmt.Errorf("core: %s: target buffer %s does not support speculative update", p.name, p.buf.Name())
	}
	return nil
}

// SpecUpdate implements SpecTaskPredictor: Update driven by the
// predicted target, undo-logged.
func (p *CTTBOnly) SpecUpdate(t *tfg.Task, pr Prediction) {
	if t.NumExits() > 0 {
		p.specBuf.SpecTrain(t.Start, pr.Target)
	}
	p.specBuf.SpecAdvance(t.Start)
}

// MarkTask implements SpecTaskPredictor.
func (p *CTTBOnly) MarkTask() TaskMark { return TaskMark{buf: p.specBuf.MarkTarget()} }

// RepairTask implements SpecTaskPredictor (no RAS: never inexact).
func (p *CTTBOnly) RepairTask(m TaskMark) bool {
	p.specBuf.RepairTarget(m.buf)
	return false
}

// CommitTask implements SpecTaskPredictor.
func (p *CTTBOnly) CommitTask(m TaskMark) { p.specBuf.CommitTarget(m.buf) }

// specLogs implements taskSpecKernel: fused when the buffer is built-in.
func (p *CTTBOnly) specLogs() (exit, buf *undoRing, ras *RAS, ok bool) {
	if p.bufK == nil {
		return nil, nil, nil, false
	}
	return nil, p.bufK.specLog(), nil, true
}

// specStepTask implements taskSpecKernel: Predict and SpecUpdate share
// one buffer index.
func (p *CTTBOnly) specStepTask(t *tfg.Task, f *specFrame) Prediction {
	return Prediction{Exit: -1, Target: p.bufK.specStepTarget(t.Start, true, t.NumExits() > 0, true, 0, f)}
}

// squashTask implements taskSpecKernel (no RAS: never inexact).
func (p *CTTBOnly) squashTask(m TaskMark, w *specWindow) bool {
	p.bufK.squashTarget(m.buf, w, true)
	return false
}
