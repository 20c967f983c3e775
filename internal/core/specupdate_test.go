package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
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
		spec := evalExitSpec(t, tr, mk(), mk, 0)
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
		spec := evalTaskSpec(t, tr, mk(), mk, 0)
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

// At positive lag the block kernels must reproduce the reference model
// exactly, and repeated runs must be deterministic.
func TestSpecLagDeterministicAcrossPaths(t *testing.T) {
	_, tr := synthGraph()
	c := columnar(t, tr)
	for _, lag := range []int{1, 3, 7} {
		for name, mk := range specExitFamilies() {
			a := evalExitSpec(t, tr, mk(), mk, lag)
			again, err := EvaluateExitSpecBlocks(c.Blocks(), mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			if !reflect.DeepEqual(a, again) {
				t.Errorf("%s lag %d: reruns disagree:\n %+v\n %+v", name, lag, a, again)
			}
		}
		for _, mk := range specTaskFamilies() {
			evalTaskSpec(t, tr, mk(), mk, lag)
		}
	}
}

// A mispredict-heavy spec run at positive lag must actually roll back,
// and the squash must replay actual outcomes (so accuracy cannot
// collapse to chance).
func TestSpecLagRollsBackAndRecovers(t *testing.T) {
	_, tr := synthGraph()
	mk := func() ExitPredictor { return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}) }
	res := evalExitSpec(t, tr, mk(), mk, 4)
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

// customExit is an exit predictor from outside the package, like the
// tournament of examples/custompredictor: it has no fused kernel.
type customExit struct{ ExitPredictor }

func (customExit) Name() string { return "custom-exit" }

// customBuffer is customExit's target-buffer counterpart.
type customBuffer struct{ TargetBuffer }

func (customBuffer) Name() string { return "custom-buffer" }

// A predictor without a fused kernel, or whose update timing is modelled
// elsewhere, must be refused with a typed error naming it — never
// silently idealized, never a panic.
func TestSpecSessionRejectsUnsupported(t *testing.T) {
	path := func() ExitPredictor { return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}) }
	lat := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{TrainLatency: 2})
	exitSession := func(p ExitPredictor) func() error {
		return func() error { _, err := newSpecExitSession(p, 2); return err }
	}
	taskSession := func(p TaskPredictor) func() error {
		return func() error { _, err := newSpecTaskSession(p, 2); return err }
	}
	for _, c := range []struct {
		name  string
		open  func() error
		names []string // what the error must name
	}{
		{"custom exit", exitSession(customExit{path()}), []string{"custom-exit"}},
		{"DelayedUpdate", exitSession(NewDelayedUpdate(path(), 3)), []string{"+lag3"}},
		{"PATH TrainLatency", exitSession(lat), []string{lat.Name(), "TrainLatency 2"}},
		{"header over custom exit", taskSession(NewHeaderPredictor("hdr", customExit{path()}, NewRAS(8), nil)),
			[]string{"hdr", "custom-exit"}},
		{"header over custom buffer", taskSession(NewHeaderPredictor("hdr", path(), nil, customBuffer{NewTTB(6)})),
			[]string{"hdr", "custom-buffer"}},
		{"header over PATH TrainLatency", taskSession(NewHeaderPredictor("hdr", lat, nil, nil)),
			[]string{lat.Name(), "TrainLatency 2"}},
		{"CTTB-only over custom buffer", taskSession(NewCTTBOnly(customBuffer{NewTTB(6)})),
			[]string{"cttb-only(custom-buffer)"}},
	} {
		err := c.open()
		var unsupported *SpecUnsupportedError
		if !errors.As(err, &unsupported) {
			t.Errorf("%s: error %v, want a *SpecUnsupportedError", c.name, err)
			continue
		}
		for _, n := range c.names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%s: error %q does not name %q", c.name, err, n)
			}
		}
	}
}

// Speculative sessions never leave unreachable ideal-table slots: an
// exit table's contexts are created only by lookups, which repair keeps,
// and the ideal CTTB's logged creates are dropped newest-first, so each
// is the last slot and is truncated away (see slotMap.drop).
func TestSpecIdealTablesStayDense(t *testing.T) {
	_, tr := synthGraph()
	for _, lag := range []int{0, 1, 4} {
		for name, mk := range specExitFamilies() {
			p := mk()
			evalExitSpec(t, tr, p, mk, lag)
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
			evalTaskSpec(t, tr, p, mk, lag)
			var buf TargetBuffer
			switch q := p.(type) {
			case *HeaderPredictor:
				buf = q.Buffer()
			case *CTTBOnly:
				buf = q.Buffer()
			}
			if b, ok := buf.(*IdealCTTB); ok && len(b.entries) != b.States() {
				t.Errorf("%s lag %d: %d CTTB slots for %d live contexts", name, lag, len(b.entries), b.States())
			}
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

// Every built-in family is accepted by a session, which then
// checkpoints and commits on the family's own undo ring.
func TestBuiltinSessionsAreFused(t *testing.T) {
	for name, mk := range specExitFamilies() {
		p := mk()
		s, err := newSpecExitSession(p, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.log != p.(exitKernel).specLog() {
			t.Errorf("%s: exit session does not log on the predictor's ring", name)
		}
	}
	for name, mk := range specTaskFamilies() {
		s, err := newSpecTaskSession(mk(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.exitLog == &s.none && s.bufLog == &s.none {
			t.Errorf("%s: task session checkpoints no ring", name)
		}
	}
}

// specFuzzFamilies lists the exit and task families in a fixed order for
// the fuzz decoder.
func specFuzzFamilies() (names []string, exits map[string]func() ExitPredictor, tasks map[string]func() TaskPredictor) {
	exits, tasks = specExitFamilies(), specTaskFamilies()
	for n := range exits {
		names = append(names, n)
	}
	for n := range tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, exits, tasks
}

// fuzzTrace decodes an exit/target sequence over synthGraph's tasks into
// a trace: starting at A, each byte picks the current task's exit (low
// bits) and, for an exit without a static target (D's RETURN), a target
// task (high bits) — so returns may land anywhere and calls nest
// arbitrarily deep.
func fuzzTrace(g *tfg.Graph, data []byte) *trace.Trace {
	addrs := []isa.Addr{10, 20, 25, 30, 40}
	tr := &trace.Trace{Graph: g}
	cur := addrs[0]
	for _, b := range data {
		t := g.TaskAt(cur)
		exit := int(b) % t.NumExits()
		target := t.Exits[exit].Target
		if !t.Exits[exit].HasTarget {
			target = addrs[int(b>>2)%len(addrs)]
		}
		tr.Steps = append(tr.Steps, trace.Step{Task: cur, Exit: int8(exit), Target: target})
		cur = target
	}
	return tr
}

// FuzzSpecSessionMatchesReference holds the fused kernels to the
// reference model on arbitrary traces. Input encoding: byte 0 selects
// the family (specFuzzFamilies order), byte 1 the lag (0..8), and the
// rest is fuzzTrace's exit/target sequence (at most 1024 steps).
func FuzzSpecSessionMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{3, 1, 1, 1, 0, 0, 0x10, 1, 1, 0, 0x14, 0, 1, 1, 0, 0x0c})
	f.Add([]byte{9, 8, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0x04, 0, 1, 1, 0, 0x08, 1, 1})
	f.Add([]byte{12, 2, 0, 1, 0, 0, 1, 1, 0, 0x04, 1, 0, 1, 1, 0, 0x0c, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		names, exits, tasks := specFuzzFamilies()
		name, lag := names[int(data[0])%len(names)], int(data[1]%9)
		g, _ := synthGraph()
		tr := fuzzTrace(g, data[2:min(len(data), 1026)])
		c := columnar(t, tr)
		if mk, ok := exits[name]; ok {
			got, err := EvaluateExitSpecBlocks(c.Blocks(), mk(), lag)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceExitSpec(tr, mk, lag); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s lag %d: fused %+v != reference %+v", name, lag, got, want)
			}
			return
		}
		mk := tasks[name]
		got, err := EvaluateTaskSpecBlocks(c.Blocks(), mk(), lag)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceTaskSpec(tr, mk, lag); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s lag %d: fused %+v != reference %+v", name, lag, got, want)
		}
	})
}
