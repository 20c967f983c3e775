package multiscalar_test

// The task kernels' outcome column: what the ring timing model and
// per-task miss accounting read instead of driving a predictor. Its bits
// must add up to the kernels' own totals, on every workload, in every
// mode and through both the composed block kernel and the generic
// Predict/Update loop.

import (
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

		// Speculative: the session's repairs after the last step are in
		// Rollbacks but in no step's bit. A squash clears the window, so
		// there is at most one, and none at lag 0, where each frame
		// resolves within its own step; a miss left in the final window
		// forces it.
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
			misses, rollbacks := columnCounts(col)
			if misses != res.Misses {
				t.Errorf("%s lag %d: column has %d misses, result %d", name, lag, misses, res.Misses)
			}
			if rollbacks == 0 {
				t.Errorf("%s lag %d: no rollback bits", name, lag)
			}
			finish := res.Rollbacks - rollbacks
			switch {
			case lag == 0 && finish != 0:
				t.Errorf("%s lag 0: %d rollbacks after the last step, want 0", name, finish)
			case finish < 0 || finish > 1:
				t.Errorf("%s lag %d: %d rollback bits, %d rollbacks: %d after the last step, want 0 or 1",
					name, lag, rollbacks, res.Rollbacks, finish)
			case finish == 0 && finalWindowMissed(tr, col, lag):
				t.Errorf("%s lag %d: a miss in the final window was never repaired", name, lag)
			}
			if lag == 0 && !slices.Equal(maskMisses(col), cols["composed"]) {
				t.Errorf("%s: lag-0 miss bits differ from the idealized column's", name)
			}
		}
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
}
