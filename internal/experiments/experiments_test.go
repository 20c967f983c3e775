package experiments

import (
	"io"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
)

// quickCfg truncates traces so the full experiment matrix stays fast in
// unit tests; shape assertions that need statistics use larger steps and
// are skipped in -short mode.
var quickCfg = Config{MaxSteps: 40000, TimingSteps: 20000}

func TestEveryExperimentRuns(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			if err := r.Run(&b, quickCfg); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			out := b.String()
			if !strings.Contains(out, "##") || !strings.Contains(out, "%") && r.Name != "fig11" && r.Name != "table2" && r.Name != "table4" {
				t.Errorf("%s: output looks empty:\n%s", r.Name, out)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fig7"); err != nil {
		t.Fatalf("fig7 missing: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("unknown experiment resolved")
	}
}

func TestDOLCFamiliesMatchDepths(t *testing.T) {
	for i, d := range ExitDOLC14 {
		if d.Depth != i || d.IndexBits() != 14 {
			t.Errorf("ExitDOLC14[%d] = %v (bits %d)", i, d, d.IndexBits())
		}
	}
	for i, d := range CTTBDOLC11 {
		if d.Depth != i || d.IndexBits() != 11 {
			t.Errorf("CTTBDOLC11[%d] = %v (bits %d)", i, d, d.IndexBits())
		}
	}
}

// Shape assertions on moderately sized traces. These encode the paper's
// qualitative claims; EXPERIMENTS.md records the full-trace numbers.

func TestFig6AutomataStratify(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	cfg := Config{MaxSteps: 400000}
	res, err := figure6Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]engine.Result{}
	for i, kind := range core.AllAutomata {
		byName[kind.Name()] = res[i]
	}
	at7 := func(name string) float64 { return byName[name][7].Exit.MissRate() }
	// LE is strictly worst; LEH-2 ties the 3-bit voting counters and
	// beats the 2-bit tier.
	for _, other := range []string{"LEH-2bit", "LEH-1bit", "3bit-VC-MRU", "2bit-VC-MRU"} {
		if at7("LE") <= at7(other) {
			t.Errorf("LE (%.4f) should be worse than %s (%.4f)", at7("LE"), other, at7(other))
		}
	}
	if at7("LEH-2bit") >= at7("LEH-1bit") {
		t.Errorf("LEH-2 (%.4f) should beat LEH-1 (%.4f)", at7("LEH-2bit"), at7("LEH-1bit"))
	}
	// LEH-2 within 5% relative of 3bit-VC-MRU (the paper: "nearly
	// identical").
	if diff := at7("LEH-2bit") - at7("3bit-VC-MRU"); diff > 0.05*at7("3bit-VC-MRU") {
		t.Errorf("LEH-2 (%.4f) not near 3bit-VC-MRU (%.4f)", at7("LEH-2bit"), at7("3bit-VC-MRU"))
	}
}

func TestFig7PathDominatesGlobalAndWinsOverall(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	cfg := Config{MaxSteps: 400000}
	res, err := figure7Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pathWins := 0
	// Each workload has one row per fig7Schemes entry: GLOBAL, PER, PATH.
	for w := 0; w < len(res); w += len(fig7Schemes) {
		name := res[w][0].Run.Workload
		miss := func(scheme, d int) float64 { return res[w+scheme][d].Exit.MissRate() }
		global, per, path := 0, 1, 2
		// Depth 0: all schemes coincide.
		if miss(global, 0) != miss(per, 0) || miss(per, 0) != miss(path, 0) {
			t.Errorf("%s: depth-0 rates differ: %v %v %v", name, miss(global, 0), miss(per, 0), miss(path, 0))
		}
		// PATH never loses to GLOBAL by more than noise at depth 7.
		if miss(path, 7) > miss(global, 7)*1.02+0.0005 {
			t.Errorf("%s: PATH (%.4f) worse than GLOBAL (%.4f) at depth 7",
				name, miss(path, 7), miss(global, 7))
		}
		// Depth helps (weak monotonicity end-to-end).
		if miss(path, 7) > miss(path, 0)+0.0005 {
			t.Errorf("%s: PATH depth 7 (%.4f) worse than depth 0 (%.4f)",
				name, miss(path, 7), miss(path, 0))
		}
		if miss(path, 7) <= miss(per, 7) {
			pathWins++
		}
	}
	if pathWins < 4 {
		t.Errorf("PATH should beat PER on at least 4 of 5 workloads, won %d", pathWins)
	}
}

func TestFig8CorrelationRescuesTargetPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	cfg := Config{MaxSteps: 600000}
	res, err := figure8Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res {
		name, d0, d8 := rs[0].Run.Workload, rs[0].Target.MissRate(), rs[8].Target.MissRate()
		if d0 < 0.3 {
			t.Errorf("%s: naive TTB limit suspiciously good (%.2f)", name, d0)
		}
		if d8 >= d0 {
			t.Errorf("%s: correlation does not help (%.2f -> %.2f)", name, d0, d8)
		}
	}
}

func TestTable3CTTBOnlyIsWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	cfg := Config{MaxSteps: 400000}
	res, err := table3Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res {
		cttbOnly, header := rs[0].Task.MissRate(), rs[1].Task.MissRate()
		if cttbOnly < header-0.0005 {
			t.Errorf("%s: CTTB-only (%.4f) beats the header predictor (%.4f)",
				rs[0].Run.Workload, cttbOnly, header)
		}
	}
}

func TestTable4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test")
	}
	cfg := Config{TimingSteps: 100000}
	res, err := table4Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res {
		ipc := map[string]float64{}
		for i := range rs {
			ipc[rs[i].Label()] = rs[i].Timing.IPC()
		}
		perfect, path, simple := ipc["Perfect"], ipc["PATH"], ipc["Simple"]
		if !(perfect >= path && path >= simple-0.02) {
			t.Errorf("%s: IPC ordering violated: simple %.3f path %.3f perfect %.3f",
				rs[0].Run.Workload, simple, path, perfect)
		}
	}
}

func TestFig11StatesIdealExceedsReal(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	cfg := Config{MaxSteps: 400000}
	res, err := figure11Plan(cfg).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each workload has its ideal row, then its real row.
	for w := 0; w < len(res); w += 2 {
		ideal, measured := res[w], res[w+1]
		name := ideal[0].Run.Workload
		if ideal[7].Exit.States < measured[7].Exit.States {
			t.Errorf("%s: ideal states (%d) below real (%d) at depth 7",
				name, ideal[7].Exit.States, measured[7].Exit.States)
		}
		if ideal[7].Exit.States <= ideal[0].Exit.States {
			t.Errorf("%s: ideal states do not grow with depth", name)
		}
	}
}

var _ io.Writer = (*strings.Builder)(nil)

// TestWorkerCountInvariance is the paper-harness half of the scheduler's
// determinism contract: a rendered experiment is byte-identical whether
// its grid ran on one worker or eight. The sample covers the exit-replay,
// task-replay, timing, and fault-injection paths; scripts/check.sh runs
// this package under -race as well.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"fig7", "table3", "table4", "fault-sweep"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				cfg := quickCfg
				cfg.Workers = workers
				var b strings.Builder
				if err := r.Run(&b, cfg); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return b.String()
			}
			seq := render(1)
			if par := render(8); par != seq {
				t.Fatalf("output differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", seq, par)
			}
		})
	}
}
