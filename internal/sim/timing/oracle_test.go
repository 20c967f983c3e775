package timing_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/workload"
)

var updateOracle = flag.Bool("update-oracle", false,
	"rewrite testdata/oracle.json from the current model (only after a deliberate change of results)")

// oracleFile holds ring-model results recorded from the interpreter-
// driven model, which ran the functional simulator and fed the model one
// event per executed instruction. The model is now driven from trace
// columns; these rows are the independent check that it still computes
// the same thing.
const oracleFile = "testdata/oracle.json"

// oracleSteps is the task budget of the spec and config rows.
const oracleSteps = 60000

// oracleRow is one recorded run: the predictor spec ("perfect" builds
// no predictor), the model's configuration and every field of the
// result.
type oracleRow struct {
	Workload string
	Spec     string
	Config   timing.Config
	Result   timing.Result
}

// engineConfig is the configuration engine.Do gives a timing run of sp
// bounded at steps tasks.
func engineConfig(sp *engine.Spec, steps int) timing.Config {
	return timing.Config{MaxSteps: steps, SpecUpdate: sp.SpecUpdate(),
		SpecLag: sp.SpecLag(), RepairLatency: sp.RepairLat()}
}

// oracleSpecs lists every timing spec of Table 4 and of the specupdate
// experiment's IPC table.
func oracleSpecs() []string {
	var specs []string
	for _, p := range experiments.Table4Specs() {
		specs = append(specs, p.Spec)
	}
	std := experiments.StdSpec()
	for _, spec := range []string{std, std + ":spec", std + ":spec:rlat8", std + ":spec:rlat32"} {
		if !slices.Contains(specs, spec) { // Table 4's PATH row is std
			specs = append(specs, spec)
		}
	}
	return specs
}

// oracleCases returns the rows to record, results unset: every oracle
// spec on every workload as the engine configures it, non-default
// configurations on two workloads, and one run to halt.
func oracleCases(t *testing.T) []oracleRow {
	var rows []oracleRow
	add := func(wl, spec string, mod func(*timing.Config), steps int) {
		sp, err := engine.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engineConfig(sp, steps)
		if mod != nil {
			mod(&cfg)
		}
		rows = append(rows, oracleRow{Workload: wl, Spec: spec, Config: cfg})
	}
	for _, wl := range workload.Names() {
		for _, spec := range oracleSpecs() {
			add(wl, spec, nil, oracleSteps)
		}
	}
	mods := []func(*timing.Config){
		func(c *timing.Config) { c.Units = 1 },
		func(c *timing.Config) { c.Units = 8 },
		func(c *timing.Config) { c.RestartPenalty = 2 },
		func(c *timing.Config) { c.RestartPenalty = 30 },
		func(c *timing.Config) { c.BimodalBits = 3 },
		func(c *timing.Config) { c.IssueWidth = 1 },
		func(c *timing.Config) { c.IssueWidth = 4 },
		func(c *timing.Config) { c.BranchPenalty = 11 },
		func(c *timing.Config) { c.ForwardLatency = 3 },
		func(c *timing.Config) { c.SpecLag = 3 },
	}
	std := experiments.StdSpec()
	for _, wl := range []string{"compressb", "minilisp"} {
		for _, spec := range []string{std, std + ":spec:rlat8", "perfect"} {
			for _, mod := range mods {
				add(wl, spec, mod, oracleSteps)
			}
		}
	}
	add("exprc", std+":spec:rlat8", nil, 0)
	return rows
}

// runRow runs one row through timing.Run.
func runRow(t *testing.T, row oracleRow) timing.Result {
	t.Helper()
	pred, err := engine.MustParse(row.Spec).BuildTask()
	if err != nil {
		t.Fatal(err)
	}
	res, err := timing.Run(graphFor(t, row.Workload), pred, row.Config)
	if err != nil {
		t.Fatalf("%s %s: %v", row.Workload, row.Spec, err)
	}
	return res
}

// runMemo runs one row over the workload's trace memo: through
// engine.Do when the row is configured as the engine configures it,
// else through timing.Outcomes and timing.RunTrace.
func runMemo(t *testing.T, row oracleRow) timing.Result {
	t.Helper()
	sp := engine.MustParse(row.Spec)
	if row.Config == engineConfig(sp, row.Config.MaxSteps) {
		res := engine.Do(engine.Run{Workload: row.Workload, Spec: row.Spec,
			Mode: engine.ModeTiming, TimingSteps: row.Config.MaxSteps})
		if res.Err != nil {
			t.Fatalf("engine %s: %v", rowName(row), res.Err)
		}
		return res.Timing
	}
	pred, err := sp.BuildTask()
	if err != nil {
		t.Fatal(err)
	}
	c, bits, err := workload.CachedBranches(row.Workload, row.Config.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	col, task, err := timing.Outcomes(c, pred, row.Config)
	if err != nil {
		t.Fatal(err)
	}
	res, err := timing.RunTrace(c, bits, col, row.Config)
	if err != nil {
		t.Fatalf("%s: %v", rowName(row), err)
	}
	res.Rollbacks = task.Rollbacks
	return res
}

func loadOracle(t *testing.T) []oracleRow {
	t.Helper()
	b, err := os.ReadFile(oracleFile)
	if err != nil {
		t.Fatal(err)
	}
	var rows []oracleRow
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func rowName(row oracleRow) string {
	return fmt.Sprintf("%s/%s/%+v", row.Workload, row.Spec, row.Config)
}

// TestOracle holds the ring model to the recorded rows, field by field,
// through timing.Run and over the trace memo.
func TestOracle(t *testing.T) {
	if *updateOracle {
		rows := oracleCases(t)
		for i := range rows {
			rows[i].Result = runRow(t, rows[i])
		}
		b := []byte("[\n")
		for i, row := range rows {
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				b = append(b, ",\n"...)
			}
			b = append(b, line...)
		}
		if err := os.WriteFile(oracleFile, append(b, "\n]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	rows := loadOracle(t)
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row.Workload+" "+row.Spec] = true
		if got := runRow(t, row); got != row.Result {
			t.Errorf("timing.Run %s:\n got %+v\nwant %+v", rowName(row), got, row.Result)
		}
		if got := runMemo(t, row); got != row.Result {
			t.Errorf("memo-fed %s:\n got %+v\nwant %+v", rowName(row), got, row.Result)
		}
	}
	// The oracle covers every experiment timing spec on every workload.
	for _, wl := range workload.Names() {
		for _, spec := range oracleSpecs() {
			if !seen[wl+" "+spec] {
				t.Errorf("oracle has no row for %s %s", wl, spec)
			}
		}
	}
}
