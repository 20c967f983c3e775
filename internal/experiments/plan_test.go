package experiments

import (
	"strings"
	"testing"
)

// TestPlanRunShape holds plan.run to its contract: results come back in
// the plan's shape, ragged rows and empty rows included, each cell the
// result of its own run.
func TestPlanRunShape(t *testing.T) {
	cfg := Config{MaxSteps: 500, Workers: 2}
	p := byWorkload([]string{"boolmin", "exprc"},
		replays(cfg, "ipath:d0:leh2", "ipath:d3:leh2", "icttb:d2"),
		nil,
		replays(cfg, StdSpec()))
	if len(p) != 6 {
		t.Fatalf("byWorkload: %d rows, want 6", len(p))
	}
	res, err := p.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(p) {
		t.Fatalf("%d result rows for %d plan rows", len(res), len(p))
	}
	for i := range p {
		if len(res[i]) != len(p[i]) {
			t.Fatalf("row %d: %d results for %d runs", i, len(res[i]), len(p[i]))
		}
		for j := range p[i] {
			if res[i][j].Run != p[i][j] {
				t.Errorf("cell [%d][%d] holds the result of %+v, want %+v", i, j, res[i][j].Run, p[i][j])
			}
		}
	}
	if got := res[3][1].Run; got.Workload != "exprc" || got.Spec != "ipath:d3:leh2" {
		t.Errorf("cell [3][1] ran %s under %s", got.Workload, got.Spec)
	}
	if res[0][0].Exit.Steps == 0 || res[5][0].Task.Steps == 0 {
		t.Error("cells were not replayed")
	}

	empty, err := plan(nil).run(cfg)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty plan: %d rows, err %v", len(empty), err)
	}
}

// TestPlanRunFirstError checks that a failed cell fails the whole plan
// with the first failure in row-major order, named by workload and
// label.
func TestPlanRunFirstError(t *testing.T) {
	cfg := Config{MaxSteps: 500}
	p := plan{
		{{Workload: "boolmin", Spec: "ipath:d1:leh2", MaxSteps: cfg.MaxSteps}},
		{},
		{
			{Workload: "exprc", Spec: "ipath:d1:leh2", MaxSteps: cfg.MaxSteps},
			{Workload: "exprc", Spec: "nosuch:d1", Label: "first-bad"},
		},
		{{Workload: "boolmin", Spec: "nosuch:d2", Label: "second-bad"}},
	}
	res, err := p.run(cfg)
	if err == nil {
		t.Fatalf("plan with bad cells succeeded: %+v", res)
	}
	if !strings.HasPrefix(err.Error(), "experiments: exprc under first-bad: ") {
		t.Errorf("error %q does not name the first failed cell", err)
	}
	if res != nil {
		t.Error("failed plan returned results")
	}
}
