package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// assemble builds a program + TFG from assembly source.
func assemble(t *testing.T, src string) (*program.Program, *tfg.Graph) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	g, err := taskform.Partition(p, taskform.Options{})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return p, g
}

// standardConfig mirrors the paper's flagship predictor configuration.
func standardConfig() *PredictorConfig {
	return &PredictorConfig{PredSpec: stdSpec}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warn, Error} {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Errorf("ParseSeverity accepted junk")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "tfg-exit-overflow", Sev: Error, Task: 4, HasTask: true, Addr: 9, HasAddr: true, Line: 3, Msg: "boom"}
	s := d.String()
	for _, want := range []string{"error", "tfg-exit-overflow", "task@4", "@9", "line 3", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestReportOrdering checks errors sort before warnings before infos, and
// that the order is deterministic.
func TestReportOrdering(t *testing.T) {
	passes := []Pass{{Name: "p", Run: func(*Context) []Diagnostic {
		return []Diagnostic{
			{Check: "b-info", Sev: Info, Msg: "i"},
			{Check: "a-warn", Sev: Warn, Msg: "w"},
			{Check: "c-err", Sev: Error, Msg: "e"},
		}
	}}}
	r := RunPasses(&Context{}, passes)
	if len(r.Diags) != 3 || r.Diags[0].Sev != Error || r.Diags[1].Sev != Warn || r.Diags[2].Sev != Info {
		t.Fatalf("order = %v", r.Diags)
	}
	if r.Summary() != "1 error, 1 warning, 1 info" {
		t.Errorf("Summary() = %q", r.Summary())
	}
	if got := r.Checks(); len(got) != 3 || got[0] != "a-warn" {
		t.Errorf("Checks() = %v", got)
	}
}

// TestCleanWorkloads is the acceptance gate: every built-in workload,
// analyzed under the paper's standard predictor configuration, must
// produce zero error-severity diagnostics.
func TestCleanWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		g, err := w.Graph()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rep := Run(NewContext(g.Prog, g, standardConfig()))
		if n := rep.Count(Error); n != 0 {
			var buf bytes.Buffer
			rep.WriteText(&buf, Error)
			t.Errorf("%s: %d lint errors on a clean workload:\n%s", w.Name, n, buf.String())
		}
		if n := rep.Count(Warn); n != 0 {
			var buf bytes.Buffer
			rep.WriteText(&buf, Warn)
			t.Logf("%s: %d warnings:\n%s", w.Name, n, buf.String())
		}
	}
}

// corruptGraph builds a deliberately broken TFG: exit-slot overflow, a
// dangling exit target, an incoherent exit kind, an orphan task, and a
// RETURN reachable at call depth zero.
func corruptGraph(t *testing.T) *tfg.Graph {
	t.Helper()
	p, g := assemble(t, `
.entry main
.func main
  j    @f
.func f
  ret
`)
	// main's task: overflow the header and point an exit at nowhere.
	entry := g.Tasks[p.Entry]
	entry.Exits = append(entry.Exits,
		tfg.ExitSpec{Kind: isa.KindBranch, Target: 99, HasTarget: true},
		tfg.ExitSpec{Kind: isa.KindBranch, Target: 0, HasTarget: true},
		tfg.ExitSpec{Kind: isa.KindBranch, Target: 0, HasTarget: true},
		tfg.ExitSpec{Kind: isa.KindBranch, Target: 0, HasTarget: true})
	// An orphan task nothing references, whose edge points at a Ret
	// instruction while the header claims a BRANCH exit (incoherent).
	g.Tasks[77] = &tfg.Task{
		Start:     77,
		Blocks:    []isa.Addr{1},
		Exits:     []tfg.ExitSpec{{Kind: isa.KindBranch, Target: 0, HasTarget: true}},
		ExitIndex: map[tfg.ExitRef]int{{At: 1, Slot: tfg.SlotPrimary}: 0},
	}
	g.Finalize()
	return g
}

// TestCorruptFixture asserts the acceptance criterion: a deliberately
// corrupted TFG triggers at least three distinct check IDs, including
// error severity (nonzero mlint exit status).
func TestCorruptFixture(t *testing.T) {
	g := corruptGraph(t)
	rep := Run(NewContext(g.Prog, g, standardConfig()))
	if !rep.HasErrors() {
		t.Fatalf("corrupt fixture produced no errors")
	}
	checks := rep.Checks()
	if len(checks) < 3 {
		t.Fatalf("corrupt fixture triggered %d distinct checks (%v), want >= 3", len(checks), checks)
	}
	for _, want := range []string{tfg.CheckExitOverflow, tfg.CheckExitTarget, tfg.CheckExitCoherence, CheckOrphanTask, CheckRASUnderflow} {
		if !hasCheck(rep, want) {
			t.Errorf("corrupt fixture missing check %s (got %v)", want, checks)
		}
	}
}

func hasCheck(r *Report, id string) bool {
	for _, d := range r.Diags {
		if d.Check == id {
			return true
		}
	}
	return false
}

// TestGoldenJSON pins the mlint -json document schema. Regenerate with
// `go test ./internal/lint -run TestGoldenJSON -update` after an
// intentional format change.
func TestGoldenJSON(t *testing.T) {
	p, g := assemble(t, `
.entry main
.func main
  j    @f
.func f
  ret
`)
	cfg := &PredictorConfig{PredSpec: "composed:path:d2-o4-l5-c5:leh2:ras4"}
	rep := Run(NewContext(p, g, cfg))

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Target{{Name: "fixture", Report: rep}}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
