// Package lint is a multi-pass static analyzer for the Multiscalar
// pipeline. It checks the structural properties the paper's results rest
// on before a single simulation cycle runs: task headers within the
// Table-1 exit budget, CALL/RETURN balance so the return address stack
// stays coherent (§4), DOLC index functions that actually fit their
// predictor tables (§6, Figures 9–10), and the program-level layout
// invariants of the MSA ISA.
//
// The analyzer is organized as passes over a shared Context. Each Pass
// inspects one concern and emits Diagnostics carrying a stable check ID,
// a severity, and a source position (instruction address, task, and —
// when the front end recorded it — source line). Error-severity
// diagnostics make a lint run fail, so mslc, msim, mbench, and CI can
// gate on them; warnings and infos inform without blocking.
//
// Check IDs are stable strings of the form "<layer>-<concern>" with
// layers tfg (task flow graph), prog (program/ASM), cfg (predictor
// configuration), and obs (observability metrics registry). The TFG
// structural IDs are defined in internal/tfg, which shares them with
// tfg.(*Graph).Validate — one source of truth.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/tfg"
)

// Severity ranks a diagnostic.
type Severity uint8

const (
	// Info reports a measured property with no judgement attached.
	Info Severity = iota
	// Warn flags a property likely to degrade prediction quality.
	Warn
	// Error flags a broken invariant; execution must not proceed.
	Error
)

var severityNames = [...]string{Info: "info", Warn: "warn", Error: "error"}

// String returns "info", "warn" or "error".
func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity maps "info"/"warn"/"error" back to a Severity.
func ParseSeverity(s string) (Severity, error) {
	for sev, name := range severityNames {
		if name == s {
			return Severity(sev), nil
		}
	}
	return 0, fmt.Errorf("lint: unknown severity %q (want info, warn or error)", s)
}

// Diagnostic is one finding of a pass.
type Diagnostic struct {
	// Check is the stable check ID (e.g. "tfg-ras-underflow").
	Check string
	// Sev is the severity.
	Sev Severity
	// Task is the start address of the task involved, valid when HasTask.
	Task    isa.Addr
	HasTask bool
	// Addr is the instruction address involved, valid when HasAddr.
	Addr    isa.Addr
	HasAddr bool
	// Line is the 1-based source line of Addr (0 when unknown).
	Line int
	// Msg describes the finding.
	Msg string
}

// pos renders the position fragment of a diagnostic ("" when unknown).
func (d Diagnostic) pos() string {
	var parts []string
	if d.HasTask {
		parts = append(parts, fmt.Sprintf("task@%d", d.Task))
	}
	if d.HasAddr {
		parts = append(parts, fmt.Sprintf("@%d", d.Addr))
	}
	if d.Line > 0 {
		parts = append(parts, fmt.Sprintf("line %d", d.Line))
	}
	return strings.Join(parts, " ")
}

// String renders the diagnostic as one line of human-readable text.
func (d Diagnostic) String() string {
	if p := d.pos(); p != "" {
		return fmt.Sprintf("%-5s %s: %s: %s", d.Sev, d.Check, p, d.Msg)
	}
	return fmt.Sprintf("%-5s %s: %s", d.Sev, d.Check, d.Msg)
}

// PredictorConfig describes the predictor hardware a program is to run
// under, for the config-layer passes. The predictor spec string is the
// one description of the hardware: every pass derives the exit DOLC,
// CTTB DOLC and RAS depth from the parsed spec.
type PredictorConfig struct {
	// PredSpec is the engine predictor spec string the run will build
	// ("" = none, which skips every predictor-dependent check). The
	// cfg-pred-spec pass validates it.
	PredSpec string
	// FaultSpec is the raw fault-injection spec string the run will use
	// ("" = no injection). The cfg-fault-spec pass validates it, and
	// cfg-pred-spec checks it against the structures the spec builds.
	FaultSpec string
}

// spec returns the parsed predictor spec, or nil when PredSpec is unset
// or malformed (cfg-pred-spec owns reporting the parse error).
func (c *PredictorConfig) spec() *engine.Spec {
	if c == nil || c.PredSpec == "" {
		return nil
	}
	s, err := engine.Parse(c.PredSpec)
	if err != nil {
		return nil
	}
	return s
}

// Context is the shared state passes analyze. Any field other than Prog
// may be nil; passes skip checks whose prerequisites are absent.
type Context struct {
	// Prog is the program under analysis.
	Prog *program.Program
	// CFG is the basic-block graph (nil when the program is too broken to
	// build one; the prog-layer passes still run from Prog alone).
	CFG *program.CFG
	// Graph is the task flow graph (nil for program-only lints).
	Graph *tfg.Graph
	// Config is the predictor configuration (nil disables cfg passes and
	// predictor-coverage checks).
	Config *PredictorConfig

	// df caches the solved dataflow analyses (lazily built by
	// dataflowFacts; shared by the dataflow passes and -report).
	df *dfFacts
}

// NewContext assembles a context, building the CFG from the program when
// possible (a program that fails validation simply leaves CFG nil — the
// prog-layer passes will report why).
func NewContext(p *program.Program, g *tfg.Graph, cfg *PredictorConfig) *Context {
	c := &Context{Prog: p, Graph: g, Config: cfg}
	if p == nil && g != nil {
		c.Prog = g.Prog
	}
	if c.Prog != nil {
		if cf, err := program.BuildCFG(c.Prog); err == nil {
			c.CFG = cf
		}
	}
	return c
}

// lineOf resolves the source line for an instruction address.
func (c *Context) lineOf(addr isa.Addr) int {
	if c.Prog == nil {
		return 0
	}
	return c.Prog.LineOf(addr)
}

// Pass is one analysis. Name doubles as the pass's identity in reports;
// the diagnostics it emits carry their own (usually more specific) check
// IDs.
type Pass struct {
	// Name identifies the pass (kebab-case, layer-prefixed).
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the context and returns findings (nil when clean or
	// when prerequisites are missing).
	Run func(c *Context) []Diagnostic
}

// AllPasses returns every registered pass, TFG layer first, then the
// program layer, then the configuration layer, then the observability
// layer.
func AllPasses() []Pass {
	var out []Pass
	out = append(out, tfgPasses()...)
	out = append(out, dataflowPasses()...)
	out = append(out, progPasses()...)
	out = append(out, configPasses()...)
	out = append(out, predSpecPasses()...)
	out = append(out, faultPasses()...)
	out = append(out, obsPasses()...)
	return out
}

// Report aggregates the diagnostics of a lint run.
type Report struct {
	// Diags holds all findings: errors first, then warnings, then infos,
	// each group ordered by (check, task, addr, msg).
	Diags []Diagnostic
}

// RunPasses executes the given passes over the context and aggregates
// their findings into a deterministic report.
func RunPasses(c *Context, passes []Pass) *Report {
	var diags []Diagnostic
	for _, p := range passes {
		diags = append(diags, p.Run(c)...)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev // errors first
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.HasTask != b.HasTask || a.Task != b.Task {
			ta, tb := ^isa.Addr(0), ^isa.Addr(0)
			if a.HasTask {
				ta = a.Task
			}
			if b.HasTask {
				tb = b.Task
			}
			return ta < tb
		}
		if a.HasAddr != b.HasAddr || a.Addr != b.Addr {
			aa, ab := ^isa.Addr(0), ^isa.Addr(0)
			if a.HasAddr {
				aa = a.Addr
			}
			if b.HasAddr {
				ab = b.Addr
			}
			return aa < ab
		}
		return a.Msg < b.Msg
	})
	return &Report{Diags: diags}
}

// Run executes every registered pass over the context.
func Run(c *Context) *Report { return RunPasses(c, AllPasses()) }

// Count returns the number of diagnostics at exactly severity s.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any error-severity diagnostic was found.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// Checks returns the distinct check IDs present, sorted.
func (r *Report) Checks() []string {
	seen := make(map[string]bool)
	for _, d := range r.Diags {
		seen[d.Check] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Summary renders the severity counts ("2 errors, 1 warning, 3 infos").
func (r *Report) Summary() string {
	plural := func(n int, what string) string {
		if n == 1 {
			return fmt.Sprintf("%d %s", n, what)
		}
		return fmt.Sprintf("%d %ss", n, what)
	}
	return fmt.Sprintf("%s, %s, %s",
		plural(r.Count(Error), "error"),
		plural(r.Count(Warn), "warning"),
		plural(r.Count(Info), "info"))
}

// WriteText renders every diagnostic of at least severity min, one per
// line.
func (r *Report) WriteText(w io.Writer, min Severity) error {
	for _, d := range r.Diags {
		if d.Sev < min {
			continue
		}
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// Target names one lint subject in a JSON report (a workload or a source
// file).
type Target struct {
	// Name identifies the subject.
	Name string
	// Report holds the subject's findings.
	Report *Report
}

// JSON document schema. Version is bumped on incompatible changes; the
// golden-file test in this package pins the format.
type jsonDoc struct {
	Version int          `json:"version"`
	Targets []jsonTarget `json:"targets"`
}

type jsonTarget struct {
	Name        string         `json:"name"`
	Diagnostics []jsonDiag     `json:"diagnostics"`
	Counts      map[string]int `json:"counts"`
}

type jsonDiag struct {
	Check    string  `json:"check"`
	Severity string  `json:"severity"`
	Task     *uint32 `json:"task,omitempty"`
	Addr     *uint32 `json:"addr,omitempty"`
	Line     int     `json:"line,omitempty"`
	Msg      string  `json:"msg"`
}

// WriteJSON renders targets as the stable mlint -json document: a
// versioned object with one entry per target, diagnostics in report
// order, and per-severity counts.
func WriteJSON(w io.Writer, targets []Target) error {
	doc := jsonDoc{Version: 1, Targets: []jsonTarget{}}
	for _, t := range targets {
		jt := jsonTarget{
			Name:        t.Name,
			Diagnostics: []jsonDiag{},
			Counts: map[string]int{
				"error": t.Report.Count(Error),
				"warn":  t.Report.Count(Warn),
				"info":  t.Report.Count(Info),
			},
		}
		for _, d := range t.Report.Diags {
			jd := jsonDiag{Check: d.Check, Severity: d.Sev.String(), Line: d.Line, Msg: d.Msg}
			if d.HasTask {
				v := uint32(d.Task)
				jd.Task = &v
			}
			if d.HasAddr {
				v := uint32(d.Addr)
				jd.Addr = &v
			}
			jt.Diagnostics = append(jt.Diagnostics, jd)
		}
		doc.Targets = append(doc.Targets, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
