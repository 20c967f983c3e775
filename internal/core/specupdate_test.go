package core

import (
	"reflect"
	"testing"
	"unsafe"

	"multiscalar/internal/trace"
)

// specExitFamilies builds one fresh exit predictor per supported family.
func specExitFamilies() map[string]func() ExitPredictor {
	return map[string]func() ExitPredictor{
		"path-real": func() ExitPredictor { return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}) },
		"path-skip": func() ExitPredictor {
			return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true})
		},
		"path-vcrand": func() ExitPredictor {
			return MustPathExit(MustDOLC(3, 5, 5, 5, 1), VC3Random, PathExitOptions{Seed: 7})
		},
		"global-real": func() ExitPredictor { p, _ := NewGlobalExit(4, 6, 10, LEH2); return p },
		"per-real":    func() ExitPredictor { p, _ := NewPerExit(4, 6, 6, 10, LEH2); return p },
		"iglobal":     func() ExitPredictor { return NewIdealGlobal(4, LEH2) },
		"iper":        func() ExitPredictor { return NewIdealPer(4, LEH2) },
		"ipath":       func() ExitPredictor { return NewIdealPath(4, VC2MRU) },
	}
}

func specTaskFamilies() map[string]func() TaskPredictor {
	return map[string]func() TaskPredictor{
		"header": func() TaskPredictor {
			return NewHeaderPredictor("h",
				MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true}),
				NewRAS(8), MustCTTB(MustDOLC(2, 4, 4, 4, 1)))
		},
		"header-ideal": func() TaskPredictor {
			return NewHeaderPredictor("hi", NewIdealPath(4, LEH2), NewRAS(8), NewIdealCTTB(2))
		},
		"header-noras": func() TaskPredictor {
			return NewHeaderPredictor("nr",
				MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), nil, nil)
		},
		"cttb-only":  func() TaskPredictor { return NewCTTBOnly(MustCTTB(MustDOLC(4, 4, 5, 5, 1))) },
		"icttb-only": func() TaskPredictor { return NewCTTBOnly(NewIdealCTTB(4)) },
	}
}

// Lag-0 speculative update must be byte-identical to the idealized
// evaluator: every committed speculative update trained the actual
// outcome, and every repaired one was replaced by exactly the idealized
// update. Only the rollback accounting may differ (idealized mode leaves
// it zero).
func TestSpecLagZeroMatchesIdealizedExit(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specExitFamilies() {
		ideal := evalExit(t, tr, mk())
		spec := evalExitSpec(t, tr, mk(), 0)
		if spec.Rollbacks != spec.Misses {
			t.Errorf("%s: lag-0 rollbacks %d != misses %d", name, spec.Rollbacks, spec.Misses)
		}
		spec.Rollbacks, spec.RepairFrames = 0, 0
		if !reflect.DeepEqual(ideal, spec) {
			t.Errorf("%s: lag-0 spec diverges from idealized:\n ideal %+v\n spec  %+v", name, ideal, spec)
		}
	}
}

func TestSpecLagZeroMatchesIdealizedTask(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specTaskFamilies() {
		ideal := evalTask(t, tr, mk())
		spec := evalTaskSpec(t, tr, mk(), 0)
		if spec.Rollbacks < spec.Misses {
			t.Errorf("%s: rollbacks %d < misses %d (full-outcome mismatches include target misses)",
				name, spec.Rollbacks, spec.Misses)
		}
		spec.Rollbacks, spec.RepairFrames, spec.RASDamage = 0, 0, 0
		if !reflect.DeepEqual(ideal, spec) {
			t.Errorf("%s: lag-0 spec diverges from idealized:\n ideal %+v\n spec  %+v", name, ideal, spec)
		}
	}
}

// At positive lag the block kernels and the unresolved oracle must
// agree exactly, and repeated runs must be deterministic.
func TestSpecLagDeterministicAcrossPaths(t *testing.T) {
	_, tr := synthGraph()
	c := columnar(t, tr)
	for _, lag := range []int{1, 3, 7} {
		for name, mk := range specExitFamilies() {
			a, err := EvaluateExitSpecBlocks(c.Blocks(), mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			b, err := EvaluateExitSpecUnresolved(tr, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			again, err := EvaluateExitSpecBlocks(c.Blocks(), mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, again) {
				t.Errorf("%s lag %d: paths disagree:\n blocks     %+v\n unresolved %+v\n again      %+v",
					name, lag, a, b, again)
			}
		}
		for name, mk := range specTaskFamilies() {
			a, err := EvaluateTaskSpecBlocks(c.Blocks(), mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			b, err := EvaluateTaskSpecUnresolved(tr, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s lag %d: paths disagree:\n blocks     %+v\n unresolved %+v", name, lag, a, b)
			}
		}
	}
}

// A mispredict-heavy spec run at positive lag must actually roll back,
// and the squash must replay actual outcomes (so accuracy cannot
// collapse to chance).
func TestSpecLagRollsBackAndRecovers(t *testing.T) {
	_, tr := synthGraph()
	res := evalExitSpec(t, tr, MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), 4)
	if res.Rollbacks == 0 {
		t.Fatal("expected rollbacks on a mispredicting trace")
	}
	if res.RepairFrames < res.Rollbacks {
		t.Fatalf("repair frames %d < rollbacks %d", res.RepairFrames, res.Rollbacks)
	}
	if res.MissRate() > 0.5 {
		t.Fatalf("spec-mode replay collapsed to %.1f%% misses", 100*res.MissRate())
	}
}

// Predictors whose update timing is modelled elsewhere must be refused,
// never silently idealized.
func TestSpecSessionRejectsUnsupported(t *testing.T) {
	inner := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{})
	if _, err := NewSpecExitSession(NewDelayedUpdate(inner, 3), 0); err == nil {
		t.Error("DelayedUpdate wrapper must not support speculative update")
	}
	lat := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{TrainLatency: 2})
	if _, err := NewSpecExitSession(lat, 0); err == nil {
		t.Error("TrainLatency predictor must not support speculative update")
	}
	if _, err := NewSpecTaskSession(NewHeaderPredictor("x", lat, nil, nil), 0); err == nil {
		t.Error("composed predictor over a TrainLatency exit must be refused")
	}
}

// The undo log must restore predictor state exactly: interleave
// speculative updates with repairs and verify the predictor replays the
// trace identically to a never-speculated twin from that point on. This
// exercises mark/repair nesting beyond what the session drivers do.
func TestSpecRepairRestoresExactState(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specExitFamilies() {
		clean := mk()
		clean.Reset()
		dirty := mk()
		dirty.Reset()
		sd := dirty.(SpecExitPredictor)
		if c, ok := dirty.(interface{ specErr() error }); ok && c.specErr() != nil {
			continue
		}
		for i, st := range tr.Steps {
			if st.Exit == trace.HaltExit {
				continue
			}
			task := tr.Graph.TaskAt(st.Task)
			pc := clean.PredictExit(task)
			pd := dirty.PredictExit(task)
			if pc != pd {
				t.Fatalf("%s: step %d: predictions diverge (%d vs %d) after repairs", name, i, pc, pd)
			}
			// Every few steps, speculate a burst of wrong-path updates on
			// the dirty twin, then repair them all away — nested marks.
			if i%3 == 0 {
				m1 := sd.MarkExit()
				sd.SpecUpdateExit(task, (pd+1)%4)
				m2 := sd.MarkExit()
				sd.SpecUpdateExit(task, (pd+2)%4)
				sd.RepairExit(m2)
				sd.SpecUpdateExit(task, (pd+3)%4)
				sd.RepairExit(m1)
			}
			clean.UpdateExit(task, int(st.Exit))
			dirty.UpdateExit(task, int(st.Exit))
		}
		if clean.States() != dirty.States() {
			t.Errorf("%s: States diverge after repairs: %d vs %d", name, clean.States(), dirty.States())
		}
	}
}

// Speculative sessions never leave unreachable ideal-table slots: every
// logged create is repaired newest-first, so each dropped slot is the
// last one and is truncated away (see slotMap.drop).
func TestSpecIdealTablesStayDense(t *testing.T) {
	_, tr := synthGraph()
	for _, lag := range []int{0, 1, 4} {
		for name, mk := range specExitFamilies() {
			p := mk()
			evalExitSpec(t, tr, p, lag)
			var slots, states int
			switch q := p.(type) {
			case *IdealGlobal:
				slots, states = len(q.table.slots), q.States()
			case *IdealPer:
				slots, states = len(q.table.slots), q.States()
			case *IdealPath:
				slots, states = len(q.table.slots), q.States()
			default:
				continue
			}
			if slots != states {
				t.Errorf("%s lag %d: %d slots for %d live contexts", name, lag, slots, states)
			}
		}
		for name, mk := range specTaskFamilies() {
			p := mk()
			evalTaskSpec(t, tr, p, lag)
			var buf TargetBuffer
			switch q := p.(type) {
			case *HeaderPredictor:
				buf = q.Buffer()
			case *CTTBOnly:
				buf = q.Buffer()
			}
			if b, ok := buf.(*IdealCTTB); ok && len(b.entries.slots) != b.States() {
				t.Errorf("%s lag %d: %d CTTB slots for %d live contexts", name, lag, len(b.entries.slots), b.States())
			}
		}
	}
}

// A speculative update that creates its context (no lookup before it)
// is undone completely: the context, its slot and its history shift.
func TestSpecRepairUndoesIdealCreate(t *testing.T) {
	g, _ := synthGraph()
	task := g.TaskAt(10) // task A: two exits, so no predictor skips it
	for name, mk := range specExitFamilies() {
		p := mk()
		p.Reset()
		sp := p.(SpecExitPredictor)
		m := sp.MarkExit()
		sp.SpecUpdateExit(task, 1)
		if p.States() == 0 {
			t.Fatalf("%s: speculative update touched no state", name)
		}
		sp.RepairExit(m)
		if got := p.States(); got != 0 {
			t.Errorf("%s: %d states survive repair of a creating update", name, got)
		}
		fresh := mk()
		fresh.Reset()
		if a, b := p.PredictExit(task), fresh.PredictExit(task); a != b {
			t.Errorf("%s: repaired predictor predicts %d, fresh one %d", name, a, b)
		}
	}
}

// The undo ring is plain data: 16-byte entries without pointers.
func TestSpecUndoEntryIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(specUndo{}); got != 16 {
		t.Errorf("specUndo is %d bytes, want 16", got)
	}
}

// mustPanicMark runs f and checks it panics with the undo log's
// out-of-range mark error.
func mustPanicMark(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if _, ok := r.(markError); !ok {
			t.Fatalf("%s: panic %v, want a markError", what, r)
		}
	}()
	f()
}

// A repair to a mark below the ring's base names entries already
// committed away: draining to it would apply stale inverses (or index
// before the ring), so it must panic instead.
func TestUndoRingRepairBelowBasePanics(t *testing.T) {
	var r undoRing
	r.reserve()
	for i := 0; i < 3; i++ {
		r.push(specUndo{idx: uint32(i)})
	}
	r.commitTo(2)
	if got := r.since(2); got != 1 {
		t.Fatalf("since(2) = %d, want 1", got)
	}
	mustPanicMark(t, "repair below base", func() { r.since(1) })
	mustPanicMark(t, "repair beyond head", func() { r.since(4) })
}

// A commit to a mark beyond the log head names entries never pushed; it
// used to clamp silently.
func TestUndoRingCommitBeyondHeadPanics(t *testing.T) {
	var r undoRing
	r.reserve()
	r.push(specUndo{})
	r.push(specUndo{})
	r.commitTo(2)
	mustPanicMark(t, "commit beyond head", func() { r.commitTo(3) })
	mustPanicMark(t, "commit below base", func() { r.commitTo(1) })
	if e := (markError{"commit", 3, 2, 2}).Error(); e != "core: undo log commit to mark 3 outside the live log [2, 2]" {
		t.Errorf("message %q", e)
	}
}

// Every built-in family runs its fused kernel under a session; only a
// predictor without one (here, behind a wrapper) drives the public
// protocol.
func TestBuiltinSessionsAreFused(t *testing.T) {
	for name, mk := range specExitFamilies() {
		s, err := NewSpecExitSession(mk(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.kern == nil {
			t.Errorf("%s: exit session drives the public protocol", name)
		}
	}
	for name, mk := range specTaskFamilies() {
		s, err := NewSpecTaskSession(mk(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.kern == nil {
			t.Errorf("%s: task session drives the public protocol", name)
		}
	}
	type wrapped struct{ SpecExitPredictor }
	s, err := NewSpecExitSession(wrapped{MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{})}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.kern != nil {
		t.Error("a wrapped predictor took the fused path")
	}
	if s, err := newSpecExitSession(MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), 2, false); err != nil || s.kern != nil {
		t.Errorf("the oracle's session is fused (err %v)", err)
	}
}
