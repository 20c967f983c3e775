package multiscalar_test

// The block kernels' outcome column: what the ring timing model and
// per-task miss accounting read instead of driving a predictor. Its bits
// must add up to the kernels' own totals, on every workload, in every
// replay mode — exit, target and task, idealized and speculative — and
// through both the block kernels and the generic loops.

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

const columnSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

// columnCounts returns the popcounts of a column's miss and rollback
// bits.
func columnCounts(col core.OutcomeColumn) (misses, rollbacks int) {
	for _, w := range col {
		misses += bits.OnesCount64(w & 0x5555555555555555)
		rollbacks += bits.OnesCount64(w & 0xAAAAAAAAAAAAAAAA)
	}
	return misses, rollbacks
}

// finalWindowMissed reports whether a miss bit falls in the window a
// lag-deep session still holds after the last step: the prediction
// steps after the last rollback bit, at most lag of them.
func finalWindowMissed(tr *trace.Trace, col core.OutcomeColumn, lag int) bool {
	for i, n := len(tr.Steps)-1, 0; i >= 0 && n < lag && !col.Rollback(i); i-- {
		if tr.Steps[i].Exit == trace.HaltExit {
			continue
		}
		if col.Miss(i) {
			return true
		}
		n++
	}
	return false
}

func TestOutcomeColumn(t *testing.T) {
	for _, name := range workload.Names() {
		c, tr := equivTrace(t, name)

		// Idealized: the composed block kernel, and the generic loop a
		// zero-rate injector takes. The two columns agree step by step,
		// and a column changes no count.
		cols := map[string]core.OutcomeColumn{}
		for arm, build := range map[string]func() core.TaskPredictor{
			"composed": func() core.TaskPredictor { return engine.MustBuild(columnSpec) },
			"generic":  func() core.TaskPredictor { return fault.MustNew(fault.Spec{}, engine.MustBuild(columnSpec)) },
		} {
			col := core.NewOutcomeColumn(c.Len())
			res, err := core.EvaluateTaskBlocksInto(c.Blocks(), build(), col)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.EvaluateTaskBlocks(c.Blocks(), build())
			if err != nil {
				t.Fatal(err)
			}
			if res != plain {
				t.Errorf("%s %s: the column changed the result:\n %+v\n %+v", name, arm, res, plain)
			}
			misses, rollbacks := columnCounts(col)
			if misses != res.Misses || rollbacks != 0 {
				t.Errorf("%s %s: column has %d misses / %d rollbacks, result %d / 0", name, arm, misses, rollbacks, res.Misses)
			}
			cols[arm] = col
		}
		if !slices.Equal(cols["composed"], cols["generic"]) {
			t.Errorf("%s: the composed kernel's column differs from the generic loop's", name)
		}

		// Speculative: see checkSpecColumn.
		for _, lag := range []int{0, 4} {
			col := core.NewOutcomeColumn(c.Len())
			res, err := core.EvaluateTaskSpecBlocksInto(c.Blocks(), engine.MustBuild(columnSpec), lag, col)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.EvaluateTaskSpecBlocks(c.Blocks(), engine.MustBuild(columnSpec), lag)
			if err != nil {
				t.Fatal(err)
			}
			if res != plain {
				t.Errorf("%s lag %d: the column changed the result:\n %+v\n %+v", name, lag, res, plain)
			}
			checkSpecColumn(t, fmt.Sprintf("%s task lag %d", name, lag), tr, col, lag, res.Misses, res.Rollbacks, cols["composed"])
		}

		checkExitAndTargetColumns(t, name, c, tr)
	}
}

// checkSpecColumn holds a speculative replay's column to its result.
// The session's repairs after the last step are in Rollbacks but in no
// step's bit. A squash clears the window, so there is at most one, and
// none at lag 0, where each frame resolves within its own step; a miss
// left in the final window forces it. At lag 0 the miss bits equal the
// idealized column's.
func checkSpecColumn(t *testing.T, label string, tr *trace.Trace, col core.OutcomeColumn, lag, misses, rollbacks int, ideal core.OutcomeColumn) {
	t.Helper()
	colMisses, colRollbacks := columnCounts(col)
	if colMisses != misses {
		t.Errorf("%s: column has %d misses, result %d", label, colMisses, misses)
	}
	if colRollbacks == 0 {
		t.Errorf("%s: no rollback bits", label)
	}
	finish := rollbacks - colRollbacks
	switch {
	case lag == 0 && finish != 0:
		t.Errorf("%s: %d rollbacks after the last step, want 0", label, finish)
	case finish < 0 || finish > 1:
		t.Errorf("%s: %d rollback bits, %d rollbacks: %d after the last step, want 0 or 1",
			label, colRollbacks, rollbacks, finish)
	case finish == 0 && finalWindowMissed(tr, col, lag):
		t.Errorf("%s: a miss in the final window was never repaired", label)
	}
	if lag == 0 && !slices.Equal(maskMisses(col), ideal) {
		t.Errorf("%s: lag-0 miss bits differ from the idealized column's", label)
	}
}

// bareExit and bareBuf hide a predictor's block kernel and fused steps
// behind its plain interface, so the driver replays it through the
// generic loop.
type (
	bareExit struct{ core.ExitPredictor }
	bareBuf  struct{ core.TargetBuffer }
)

// checkExitAndTargetColumns holds a workload's exit and target columns
// to their results: through a block kernel, through the ideal exit
// tables' fused-step loop and through the generic loop, whose columns
// must agree bit for bit; target bits fall on indirect steps only; and
// the speculative exit column follows checkSpecColumn.
func checkExitAndTargetColumns(t *testing.T, name string, c *trace.Columnar, tr *trace.Trace) {
	t.Helper()
	exitCol := func(p core.ExitPredictor) (core.ExitResult, core.OutcomeColumn) {
		col := core.NewOutcomeColumn(c.Len())
		res, err := core.EvaluateExitBlocksInto(c.Blocks(), p, col)
		if err != nil {
			t.Fatal(err)
		}
		return res, col
	}
	for _, spec := range []string{"path:d7-o5-l6-c6-f3:leh2", "global:d7-c14-i14:leh2", "per:d7-h12-t14-i14:leh2", "ipath:d7:leh2", "iper:d7:le"} {
		res, col := exitCol(engine.MustBuildExit(spec))
		plain, err := core.EvaluateExitBlocks(c.Blocks(), engine.MustBuildExit(spec))
		if err != nil {
			t.Fatal(err)
		}
		generic, gcol := exitCol(bareExit{engine.MustBuildExit(spec)})
		if res != plain || res != generic {
			t.Errorf("%s %s: results differ:\n column  %+v\n plain   %+v\n generic %+v", name, spec, res, plain, generic)
		}
		if misses, rollbacks := columnCounts(col); misses != res.Misses || rollbacks != 0 {
			t.Errorf("%s %s: column has %d misses / %d rollbacks, result %d / 0", name, spec, misses, rollbacks, res.Misses)
		}
		if !slices.Equal(col, gcol) {
			t.Errorf("%s %s: the kernel's column differs from the generic loop's", name, spec)
		}
	}

	for _, spec := range []string{"cttb:d7-o4-l4-c5-f3", "icttb:d7"} {
		col, gcol := core.NewOutcomeColumn(c.Len()), core.NewOutcomeColumn(c.Len())
		res, err := core.EvaluateIndirectBlocksInto(c.Blocks(), engine.MustBuildTarget(spec), col)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.EvaluateIndirectBlocks(c.Blocks(), engine.MustBuildTarget(spec))
		if err != nil {
			t.Fatal(err)
		}
		generic, err := core.EvaluateIndirectBlocksInto(c.Blocks(), bareBuf{engine.MustBuildTarget(spec)}, gcol)
		if err != nil {
			t.Fatal(err)
		}
		if res != plain || res != generic {
			t.Errorf("%s %s: results differ:\n column  %+v\n plain   %+v\n generic %+v", name, spec, res, plain, generic)
		}
		if misses, rollbacks := columnCounts(col); misses != res.Misses || rollbacks != 0 {
			t.Errorf("%s %s: column has %d misses / %d rollbacks, result %d / 0", name, spec, misses, rollbacks, res.Misses)
		}
		if !slices.Equal(col, gcol) {
			t.Errorf("%s %s: the kernel's column differs from the generic loop's", name, spec)
		}
		for i, s := range tr.Steps {
			if col.Miss(i) && (s.Exit == trace.HaltExit || !tr.Graph.TaskAt(s.Task).Exits[s.Exit].Kind.IsIndirect()) {
				t.Errorf("%s %s: miss bit on step %d, whose exit is not indirect", name, spec, i)
				break
			}
		}
	}

	const exitSpec = "path:d7-o5-l6-c6-f3:leh2"
	_, ideal := exitCol(engine.MustBuildExit(exitSpec))
	for _, lag := range []int{0, 4} {
		col := core.NewOutcomeColumn(c.Len())
		res, err := core.EvaluateExitSpecBlocksInto(c.Blocks(), engine.MustBuildExit(exitSpec), lag, col)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.EvaluateExitSpecBlocks(c.Blocks(), engine.MustBuildExit(exitSpec), lag)
		if err != nil {
			t.Fatal(err)
		}
		if res != plain {
			t.Errorf("%s exit lag %d: the column changed the result:\n %+v\n %+v", name, lag, res, plain)
		}
		checkSpecColumn(t, fmt.Sprintf("%s exit lag %d", name, lag), tr, col, lag, res.Misses, res.Rollbacks, ideal)
	}
}

// maskMisses returns a copy of col with only its miss bits.
func maskMisses(col core.OutcomeColumn) core.OutcomeColumn {
	out := slices.Clone(col)
	for i := range out {
		out[i] &= 0x5555555555555555
	}
	return out
}

// A column too short for the trace is an error, not a panic.
func TestOutcomeColumnTooShort(t *testing.T) {
	c := equivColumnar(t, "boolmin")
	short := core.NewOutcomeColumn(c.Len() - 4096)
	if _, err := core.EvaluateTaskBlocksInto(c.Blocks(), engine.MustBuild(columnSpec), short); err == nil {
		t.Error("idealized kernel accepted a short column")
	}
	if _, err := core.EvaluateTaskSpecBlocksInto(c.Blocks(), engine.MustBuild(columnSpec), 4, short); err == nil {
		t.Error("spec kernel accepted a short column")
	}
	if _, err := core.EvaluateExitBlocksInto(c.Blocks(), engine.MustBuildExit("ipath:d7:leh2"), short); err == nil {
		t.Error("exit kernel accepted a short column")
	}
	if _, err := core.EvaluateIndirectBlocksInto(c.Blocks(), engine.MustBuildTarget("icttb:d7"), short); err == nil {
		t.Error("target kernel accepted a short column")
	}
	if _, err := core.EvaluateExitSpecBlocksInto(c.Blocks(), engine.MustBuildExit("ipath:d7:leh2"), 4, short); err == nil {
		t.Error("exit spec kernel accepted a short column")
	}
}
