package core

import (
	"fmt"
	"slices"
	"unsafe"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// The speculative-update reference model: an independent statement of
// what a speculative run must compute, against which the fused kernels
// (specupdate.go, specsession.go) are checked.
//
// It shares no speculation code with them. Its twins are driven only
// through Reset/Predict/Update (PredictExit/UpdateExit for an exit
// predictor). The speculating twin predicts each step, then trains
// toward its own prediction. Frames resolve `lag` steps later in
// program order, exactly as a session's do, and the architectural twin
// — never speculated on, never predicted with — trains each resolved
// frame's actual outcome (a squashed window's catch-up included). On a
// squash nothing is undone. The reference instead restores the
// speculating twin's whole state from the architectural twin's, with
// plain copies, except for exactly the speculative effects hardware
// cannot take back:
//
//   - PHT entries and ideal contexts a prediction lookup allocated stay
//     allocated, in their fresh autTouched state. A speculative train
//     only ever trains the entry its own step's lookup has just
//     allocated or found, so these are precisely the entries the
//     speculating twin holds and the architectural one lacks. The
//     architectural twin adopts them too, so it holds every survivor so
//     far.
//   - The tie-break RNG is never rewound.
//   - The RAS is repaired by its own Mark/Repair (the hardware mechanism
//     of §4.2): the speculating twin's stack is repaired to the squashed
//     frame's mark and then replays the window's actual calls and
//     returns. Whatever deep wrong-path pushes clobbered below the mark
//     stays clobbered.
//
// Target buffers carry nothing over: their lookups allocate nothing.

// refExit adapts an exit predictor to the reference's task-predictor
// driver.
type refExit struct{ p ExitPredictor }

func (r refExit) Name() string { return r.p.Name() }
func (r refExit) Reset()       { r.p.Reset() }
func (r refExit) Predict(t *tfg.Task) Prediction {
	return Prediction{Exit: r.p.PredictExit(t)}
}
func (r refExit) Update(t *tfg.Task, o Outcome) { r.p.UpdateExit(t, o.Exit) }

// refFrame is one unresolved speculation.
type refFrame struct {
	task *tfg.Task
	o    Outcome // actual
	pred Prediction
	ras  RASMark // taken before the step's speculative update
}

// refSession is the reference's speculative-update driver.
type refSession struct {
	spec, arch TaskPredictor // the speculating and the architectural twin
	exitOnly   bool          // a frame resolves on its exit alone
	lag        int
	win        []refFrame // unresolved frames, oldest first

	rollbacks, repairFrames, rasDamage int
}

func newRefSession(mk func() TaskPredictor, exitOnly bool, lag int) *refSession {
	s := &refSession{spec: mk(), arch: mk(), exitOnly: exitOnly, lag: max(lag, 0)}
	s.spec.Reset()
	s.arch.Reset()
	return s
}

func (s *refSession) step(t *tfg.Task, actual Outcome) Prediction {
	f := refFrame{task: t, o: actual}
	if ras := refRAS(s.spec); ras != nil {
		f.ras = ras.Mark()
	}
	f.pred = s.spec.Predict(t)
	s.spec.Update(t, Outcome{Exit: f.pred.Exit, Target: f.pred.Target})
	s.win = append(s.win, f)
	if len(s.win) > s.lag {
		s.resolveOldest()
	}
	return f.pred
}

func (s *refSession) finish() {
	for len(s.win) > 0 {
		s.resolveOldest()
	}
}

// correct reports whether frame f's prediction matched its outcome: the
// exit for an exit predictor; for a task predictor the target and the
// exit, when the predictor names one.
func (s *refSession) correct(f *refFrame) bool {
	if s.exitOnly {
		return f.pred.Exit == f.o.Exit
	}
	return f.pred.Target == f.o.Target && (f.pred.Exit < 0 || f.pred.Exit == f.o.Exit)
}

func (s *refSession) resolveOldest() {
	if f := &s.win[0]; s.correct(f) {
		s.arch.Update(f.task, f.o)
		s.win = s.win[1:]
		return
	}
	for i := range s.win {
		s.arch.Update(s.win[i].task, s.win[i].o)
	}
	restoreTask(s.spec, s.arch)
	if ras := refRAS(s.spec); ras != nil {
		if ras.Repair(s.win[0].ras) {
			s.rasDamage++
		}
		for i := range s.win {
			switch e := &s.win[i].task.Exits[s.win[i].o.Exit]; {
			case e.Kind.IsCall():
				ras.Push(e.Return)
			case e.Kind == isa.KindReturn:
				ras.Pop()
			}
		}
	}
	s.rollbacks++
	s.repairFrames += len(s.win)
	s.win = s.win[:0]
}

// refRAS returns p's return address stack, or nil.
func refRAS(p TaskPredictor) *RAS {
	if h, ok := p.(*HeaderPredictor); ok {
		return h.ras
	}
	return nil
}

// restoreTask makes the speculating twin spec a copy of the
// architectural twin arch, but for the survivors (see the file comment).
// The RAS is left to the caller.
func restoreTask(spec, arch TaskPredictor) {
	switch s := spec.(type) {
	case *HeaderPredictor:
		a := arch.(*HeaderPredictor)
		restoreExit(s.exit, a.exit)
		if s.buf != nil {
			restoreBuffer(s.buf, a.buf)
		}
	case *CTTBOnly:
		restoreBuffer(s.buf, arch.(*CTTBOnly).buf)
	case refExit:
		restoreExit(s.p, arch.(refExit).p)
	default:
		panic(fmt.Sprintf("reference: cannot restore %T", spec))
	}
}

// restoreExit copies each field of arch into spec, keeping spec's own
// table storage.
func restoreExit(spec, arch ExitPredictor) {
	switch s := spec.(type) {
	case *PathExit:
		a, t := arch.(*PathExit), s.pht
		*s = *a
		s.pht = restorePHT(t, &a.pht)
	case *GlobalExit:
		a, t := arch.(*GlobalExit), s.pht
		*s = *a
		s.pht = restorePHT(t, &a.pht)
	case *PerExit:
		a, t, hrt := arch.(*PerExit), s.pht, s.hrt
		*s = *a
		s.pht, s.hrt = restorePHT(t, &a.pht), hrt
		copy(hrt, a.hrt)
	case *IdealGlobal:
		a, t := arch.(*IdealGlobal), s.table
		*s = *a
		s.table = restoreIdeal(t, &a.table)
	case *IdealPer:
		a, t := arch.(*IdealPer), s.table
		*s = *a
		s.table, s.hists = restoreIdeal(t, &a.table), slices.Clone(a.hists)
	case *IdealPath:
		a, t := arch.(*IdealPath), s.table
		*s = *a
		s.table = restoreIdeal(t, &a.table)
	default:
		panic(fmt.Sprintf("reference: cannot restore %T", spec))
	}
}

func restoreBuffer(spec, arch TargetBuffer) {
	switch s := spec.(type) {
	case *CTTB:
		a, e := arch.(*CTTB), s.entries
		*s = *a
		s.entries = e
		forChangedChunks(e, a.entries, func(e, a []ttbEntry) { copy(e, a) })
	case *IdealCTTB:
		a := arch.(*IdealCTTB)
		*s = *a
		s.ctx, s.entries = cloneSlots(a.ctx), slices.Clone(a.entries)
	default:
		panic(fmt.Sprintf("reference: cannot restore %T", spec))
	}
}

// restorePHT returns arch's table in spec's storage, with spec's RNG.
// Entries spec holds and arch lacks — lookup allocations — are first
// added to arch in their fresh state.
func restorePHT(spec pht, arch *pht) pht {
	forChangedChunks(spec.states, arch.states, func(s, a []uint16) {
		for i, w := range s {
			if w != 0 && a[i] == 0 {
				a[i] = autTouched
			}
		}
		copy(s, a)
	})
	out := *arch
	out.states, out.rng = spec.states, spec.rng
	return out
}

// forChangedChunks calls f on each 1024-entry chunk of the equal-length
// tables a and b whose bytes differ. Tables run to millions of entries,
// and a squash changes a handful, so a restore that visits only the
// changed chunks stays cheap on every squash.
func forChangedChunks[E any](a, b []E, f func(a, b []E)) {
	const chunk = 1024
	for lo := 0; lo < len(a); lo += chunk {
		hi := min(lo+chunk, len(a))
		if !sameBytes(asBytes(a[lo:hi]), asBytes(b[lo:hi])) {
			f(a[lo:hi], b[lo:hi])
		}
	}
}

func asBytes[E any](s []E) []byte {
	var e E
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(e)))
}

// sameBytes reports whether a and b hold the same bytes. It reads
// nothing another goroutine can write, so it opts out of race
// instrumentation, which would otherwise make the table scans dominate
// the race-enabled suite.
//
//go:norace
func sameBytes(a, b []byte) bool {
	return unsafe.String(unsafe.SliceData(a), len(a)) == unsafe.String(unsafe.SliceData(b), len(b))
}

// restoreIdeal is restorePHT for an ideal table: contexts spec holds
// and arch lacks are added to arch, and spec gets a copy of arch's
// table with spec's RNG. The two tables share the key order of the last
// restore, so only spec's keys past their common prefix are looked up.
func restoreIdeal(spec idealPHT, arch *idealPHT) idealPHT {
	common := 0
	for common < min(spec.size(), arch.size()) && spec.key(uint32(common)) == arch.key(uint32(common)) {
		common++
	}
	for s := common; s < spec.size(); s++ {
		arch.slot(spec.key(uint32(s)))
	}
	out := *arch
	out.slotMap, out.slots, out.rng = cloneSlots(arch.slotMap), slices.Clone(arch.slots), spec.rng
	return out
}

func cloneSlots(m slotMap) slotMap {
	m.index, m.keys = slices.Clone(m.index), slices.Clone(m.keys)
	return m
}

// referenceExitSpec replays tr through an exit predictor built by mk in
// speculative-update mode with the given resolution lag, by the
// reference model: the result EvaluateExitSpecBlocks must reproduce.
func referenceExitSpec(tr *trace.Trace, mk func() ExitPredictor, lag int) ExitResult {
	s := newRefSession(func() TaskPredictor { return refExit{mk()} }, true, lag)
	res := ExitResult{Name: s.spec.Name()}
	for _, st := range tr.Steps {
		if st.Exit == trace.HaltExit {
			continue
		}
		pred := s.step(tr.Graph.TaskAt(st.Task), Outcome{Exit: int(st.Exit), Target: st.Target})
		res.Steps++
		if pred.Exit != int(st.Exit) {
			res.Misses++
		}
	}
	s.finish()
	res.States = s.spec.(refExit).p.States()
	res.Rollbacks, res.RepairFrames = s.rollbacks, s.repairFrames
	return res
}

// referenceTaskSpec is referenceExitSpec for a full task predictor: the
// result EvaluateTaskSpecBlocks must reproduce.
func referenceTaskSpec(tr *trace.Trace, mk func() TaskPredictor, lag int) TaskResult {
	s := newRefSession(mk, false, lag)
	res := TaskResult{Name: s.spec.Name()}
	for _, st := range tr.Steps {
		if st.Exit == trace.HaltExit {
			continue
		}
		t := tr.Graph.TaskAt(st.Task)
		pred := s.step(t, Outcome{Exit: int(st.Exit), Target: st.Target})
		res.Steps++
		km := &res.ByKind[t.Exits[st.Exit].Kind]
		km.Steps++
		if pred.Exit >= 0 && pred.Exit != int(st.Exit) {
			res.ExitMisses++
		}
		if pred.Target != st.Target {
			res.Misses++
			km.Misses++
		}
	}
	s.finish()
	res.Rollbacks, res.RepairFrames, res.RASDamage = s.rollbacks, s.repairFrames, s.rasDamage
	return res
}
