package core_test

// The real exit tables count the entries they have touched by scanning
// for non-zero words (pht.live), so every replay path must leave the same
// words touched: the block kernels' fused steps, the generic
// PredictExit/UpdateExit loop, and the speculative kernels, whose
// wrong-path predictions touch entries that a repair keeps touched.

import (
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/workload"
)

// statesSpecs are the real PHT predictors: each index scheme with the
// paper's LEH-2 and with a voting-counter kind, plus PATH with delayed
// training, which keeps its predict and train apart.
var statesSpecs = []string{
	"path:d7-o5-l6-c6-f3:leh2",
	"path:d7-o5-l6-c6-f3:vc3rand",
	"path:d7-o5-l6-c6-f3:leh2:nosse",
	"path:d7-o5-l6-c6-f3:leh2:lat3",
	"global:d7-c14-i14:vc2mru",
	"global:d4-c8-i10:le",
	"per:d7-h12-t14-i14:leh2",
	"per:d3-h8-t8-i10:vc3mru",
}

func TestRealPHTStatesMatchAcrossReplays(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := workload.CachedColumnar(name, 6000)
			if err != nil {
				t.Fatal(err)
			}
			tr := c.Materialize()
			for _, spec := range statesSpecs {
				want := core.EvaluateExitUnresolved(tr, engine.MustBuildExit(spec))
				got, err := core.EvaluateExitBlocks(c.Blocks(), engine.MustBuildExit(spec))
				if err != nil {
					t.Fatal(err)
				}
				if want.States == 0 || got.States != want.States || got.Misses != want.Misses {
					t.Errorf("%s: block kernel %d states %d misses, generic loop %d states %d misses",
						spec, got.States, got.Misses, want.States, want.Misses)
				}
				if strings.Contains(spec, ":lat") {
					continue // delayed training cannot combine with speculation
				}
				mk := func() core.ExitPredictor { return engine.MustBuildExit(spec) }
				ref := core.ReferenceExitSpec(tr, mk, 4)
				spec4, err := core.EvaluateExitSpecBlocks(c.Blocks(), mk(), 4)
				if err != nil {
					t.Fatal(err)
				}
				if spec4.Rollbacks == 0 || spec4.States != ref.States {
					t.Errorf("%s :spec lag 4: kernel %d states (%d rollbacks), reference %d states",
						spec, spec4.States, spec4.Rollbacks, ref.States)
				}
				if spec4.States < want.States {
					t.Errorf("%s :spec lag 4: %d states, fewer than the idealized replay's %d",
						spec, spec4.States, want.States)
				}
			}
		})
	}
}
