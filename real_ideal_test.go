package multiscalar_test

// A real DOLC-indexed table is its ideal twin whenever its index happens
// to be injective over the contexts a trace reaches: every context then
// owns one table entry, exactly as in the alias-free table, so the two
// must agree step for step. The test computes injectivity from the trace
// itself, independently of the predictors, and holds the pairs to it.

import (
	"fmt"
	"slices"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// Exit and CTTB index functions checked against their ideal twins, from
// a bare current-task index to a folded depth-3 path.
var (
	injectiveExitDOLCs   = []string{"d0-o0-l0-c15", "d1-o0-l8-c8", "d2-o6-l6-c6", "d3-o5-l5-c5-f2"}
	injectiveTargetDOLCs = []string{"d0-o0-l0-c15", "d1-o0-l10-c10", "d2-o5-l5-c5", "d3-o4-l4-c4"}
)

// pathContext is a task's exact path context: its address and the
// addresses of the depth tasks before it, as the ideal tables key it.
type pathContext [core.MaxHistoryDepth + 1]isa.Addr

// indexInjective reports whether d maps distinct path contexts to
// distinct indices over the trace's scored steps: every non-halt step
// for an exit predictor, the steps whose exit is indirect for a buffer.
// The history advances on every step, as both predictors advance it.
func indexInjective(tr *trace.Trace, d core.DOLC, indirectOnly bool) bool {
	var h core.PathHistory
	seen := map[uint32]pathContext{}
	for _, s := range tr.Steps {
		scored := s.Exit != trace.HaltExit
		if scored && indirectOnly {
			scored = tr.Graph.TaskAt(s.Task).Exits[s.Exit].Kind.IsIndirect()
		}
		if scored {
			ctx := pathContext{s.Task}
			for i := 1; i <= d.Depth; i++ {
				ctx[i] = h.At(i)
			}
			idx := d.Index(&h, s.Task)
			if prev, ok := seen[idx]; ok && prev != ctx {
				return false
			}
			seen[idx] = ctx
		}
		h.Push(s.Task)
	}
	return true
}

func TestRealMatchesIdealWhenInjective(t *testing.T) {
	targets := 0
	for _, name := range workload.Names() {
		c, tr := equivTrace(t, name)
		exits := 0
		for _, dolc := range injectiveExitDOLCs {
			real := "path:" + dolc + ":leh2:nosse"
			d := *engine.MustParse(real).ExitDOLC()
			if !indexInjective(tr, d, false) {
				continue
			}
			exits++
			ideal := fmt.Sprintf("ipath:d%d:leh2", d.Depth)
			rc, ic := core.NewOutcomeColumn(c.Len()), core.NewOutcomeColumn(c.Len())
			rr, err := core.EvaluateExitBlocksInto(c.Blocks(), engine.MustBuildExit(real), rc)
			if err != nil {
				t.Fatal(err)
			}
			ir, err := core.EvaluateExitBlocksInto(c.Blocks(), engine.MustBuildExit(ideal), ic)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rc, ic) || rr.Misses != ir.Misses || rr.States != ir.States {
				t.Errorf("%s: %s is injective here, yet differs from %s: %d vs %d misses, %d vs %d states",
					name, real, ideal, rr.Misses, ir.Misses, rr.States, ir.States)
			}
		}
		for _, dolc := range injectiveTargetDOLCs {
			real := "cttb:" + dolc
			d := *engine.MustParse(real).CTTBDOLC()
			if !indexInjective(tr, d, true) {
				continue
			}
			ideal := fmt.Sprintf("icttb:d%d", d.Depth)
			rc, ic := core.NewOutcomeColumn(c.Len()), core.NewOutcomeColumn(c.Len())
			rr, err := core.EvaluateIndirectBlocksInto(c.Blocks(), engine.MustBuildTarget(real), rc)
			if err != nil {
				t.Fatal(err)
			}
			ir, err := core.EvaluateIndirectBlocksInto(c.Blocks(), engine.MustBuildTarget(ideal), ic)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rc, ic) || rr.Misses != ir.Misses || rr.States != ir.States {
				t.Errorf("%s: %s is injective here, yet differs from %s: %d vs %d misses, %d vs %d states",
					name, real, ideal, rr.Misses, ir.Misses, rr.States, ir.States)
			}
			if rr.Steps > 0 {
				targets++
			}
		}
		if exits == 0 {
			t.Errorf("%s: no exit index function is injective", name)
		}
	}
	// boolmin and compressb take no indirect exit, so their buffers
	// score nothing.
	if targets == 0 {
		t.Error("no target index function is injective on a trace with indirect exits")
	}
}
