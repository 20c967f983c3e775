// Package engine is the unified evaluation engine: the single place
// predictor configurations are described, constructed, and run.
//
// A predictor is described by a compact spec string, parsed by Parse and
// built by the Build* methods — every layer (experiments, CLIs, mserve,
// lint) constructs predictors through this grammar so
// there is exactly one implementation of it:
//
//	path:d7-o5-l6-c6-f3:leh2          real DOLC-indexed path exit predictor
//	path:d4-o2-l6-c8:leh2:nosse       flags: nosse, ssh, lat<k>, dlat<k>, seed<k>
//	global:d7-c14-i14:leh2            real GLOBAL exit predictor
//	per:d7-h12-t14-i14:leh2           real PER exit predictor
//	ipath:d7:leh2                     ideal (alias-free) PATH; also iglobal, iper
//	cttb:d7-o4-l4-c5-f3               real correlated task target buffer
//	icttb:d7                          ideal (infinite) CTTB
//	composed:<exit>[:ras<N>|:noras][:<buffer>]
//	                                  header predictor: exit + RAS + buffer
//	perfect                           always-correct predictor (timing runs only)
//
// Spec.String returns the canonical form: Parse(s).String() is a fixed
// point, and journal keys and result labels use it so they survive
// cosmetic respellings of the same configuration.
//
// The engine's other half is the run model (run.go) and the
// deterministic worker-pool scheduler (sched.go).
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"multiscalar/internal/core"
)

// Class is the top-level kind of predictor a spec describes, which
// determines how a run evaluates it by default.
type Class uint8

const (
	// ClassExit is an exit predictor, evaluated over every exit.
	ClassExit Class = iota
	// ClassTarget is a target buffer, evaluated over indirect exits (or
	// wrapped as a CTTB-only task predictor in task mode).
	ClassTarget
	// ClassTask is a composed full task predictor.
	ClassTask
	// ClassPerfect is the always-correct predictor of Table 4, meaningful
	// only to the timing model (which treats a nil predictor as perfect).
	ClassPerfect
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassExit:
		return "exit"
	case ClassTarget:
		return "target"
	case ClassTask:
		return "task"
	case ClassPerfect:
		return "perfect"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Scheme is an exit predictor's history scheme.
type Scheme uint8

const (
	// SchemePath is the real DOLC-indexed path predictor.
	SchemePath Scheme = iota
	// SchemeGlobal is the real pattern-history GLOBAL predictor.
	SchemeGlobal
	// SchemePer is the real per-task-history PER predictor.
	SchemePer
	// SchemeIdealPath is the alias-free (exact-key) PATH predictor.
	SchemeIdealPath
	// SchemeIdealGlobal is the alias-free GLOBAL predictor.
	SchemeIdealGlobal
	// SchemeIdealPer is the alias-free PER predictor.
	SchemeIdealPer
)

// ExitSpec is a parsed exit predictor description.
type ExitSpec struct {
	Scheme Scheme
	// DOLC is the index function (SchemePath only).
	DOLC core.DOLC
	// Depth is the history depth (all schemes but SchemePath, which
	// carries it inside DOLC).
	Depth int
	// Current is the new-path bit width (SchemeGlobal).
	Current int
	// HRT is the history register table index width (SchemePer).
	HRT int
	// TaskBits is the per-task history field width (SchemePer).
	TaskBits int
	// Index is the PHT index width (SchemeGlobal, SchemePer).
	Index int
	// Automaton is the PHT entry automaton.
	Automaton core.AutomatonKind
	// NoSSE disables the single-exit-task optimization (SchemePath,
	// which enables it by default).
	NoSSE bool
	// SSH additionally keeps single-exit tasks out of the path history
	// (SchemePath).
	SSH bool
	// Lat delays automaton training by this many tasks (SchemePath).
	Lat int
	// DLat wraps the predictor in core.DelayedUpdate: the whole update,
	// history included, lags by this many tasks (any scheme).
	DLat int
	// Seed seeds the tie-break RNG of voting-counter automata
	// (SchemePath).
	Seed uint32
}

// TargetSpec is a parsed target buffer description.
type TargetSpec struct {
	// Ideal selects the infinite alias-free CTTB.
	Ideal bool
	// DOLC is the real CTTB's index function (!Ideal).
	DOLC core.DOLC
	// Depth is the ideal CTTB's history depth (Ideal).
	Depth int
}

// Spec is a parsed predictor specification. The zero value is not
// valid; obtain Specs from Parse.
type Spec struct {
	class    Class
	exit     *ExitSpec
	buf      *TargetSpec
	rasDepth int // resolved capacity (ClassTask, unless noRAS)
	noRAS    bool

	// specUpdate selects speculative-update mode: predictors train at
	// prediction time with the predicted outcome and mispredicts repair
	// through per-predictor undo logs (the trailing :spec flag).
	specUpdate bool
	// repairLat is the timing model's per-rollback repair charge in
	// cycles (the trailing :rlat<k> flag; requires :spec).
	repairLat int
}

// Class reports the spec's top-level predictor kind.
func (s *Spec) Class() Class { return s.class }

// Exit returns the exit predictor component (nil when absent).
func (s *Spec) Exit() *ExitSpec { return s.exit }

// Target returns the target buffer component (nil when absent).
func (s *Spec) Target() *TargetSpec { return s.buf }

// HasExit reports whether the spec contains any exit predictor.
func (s *Spec) HasExit() bool { return s.exit != nil }

// HasTarget reports whether the spec contains any target buffer.
func (s *Spec) HasTarget() bool { return s.buf != nil }

// SpecUpdate reports whether the spec selects speculative-update mode.
func (s *Spec) SpecUpdate() bool { return s.specUpdate }

// RepairLat returns the timing model's per-rollback repair latency in
// cycles (0 unless the spec carries :spec:rlat<k>).
func (s *Spec) RepairLat() int { return s.repairLat }

// SpecLag returns the speculative-update session's resolution lag: in
// spec mode the exit component's dlat<k> flag is reinterpreted as the
// number of younger in-flight predictions between a prediction and its
// resolution (instead of wrapping the predictor in core.DelayedUpdate).
func (s *Spec) SpecLag() int {
	if !s.specUpdate || s.exit == nil {
		return 0
	}
	return s.exit.DLat
}

// RASDepth returns the effective return address stack capacity the spec
// builds: 0 when the spec carries no RAS at all (exit-only, target-only,
// perfect, or composed:...:noras).
func (s *Spec) RASDepth() int {
	if s.class != ClassTask || s.noRAS {
		return 0
	}
	return s.rasDepth
}

// ExitDOLC returns the real path exit predictor's index function, or nil
// when the spec has no DOLC-indexed exit predictor.
func (s *Spec) ExitDOLC() *core.DOLC {
	if s.exit != nil && s.exit.Scheme == SchemePath {
		d := s.exit.DOLC
		return &d
	}
	return nil
}

// CTTBDOLC returns the real CTTB's index function, or nil when the spec
// has no DOLC-indexed target buffer.
func (s *Spec) CTTBDOLC() *core.DOLC {
	if s.buf != nil && !s.buf.Ideal {
		d := s.buf.DOLC
		return &d
	}
	return nil
}

// automTokens maps the grammar's compact automaton tokens to the kinds
// of core.AllAutomata.
var automTokens = []struct {
	tok  string
	kind core.AutomatonKind
}{
	{"le", core.LE},
	{"leh1", core.LEH1},
	{"leh2", core.LEH2},
	{"vc2mru", core.VC2MRU},
	{"vc2rand", core.VC2Random},
	{"vc3mru", core.VC3MRU},
	{"vc3rand", core.VC3Random},
}

// AutomatonToken returns the grammar's compact token for an automaton
// kind ("leh2" for LEH-2bit), for callers composing spec strings.
func AutomatonToken(k core.AutomatonKind) string {
	for _, e := range automTokens {
		if e.kind.Name() == k.Name() {
			return e.tok
		}
	}
	return strings.ToLower(k.Name())
}

// parseAutomaton resolves an automaton segment: a compact token or a
// display name ("LEH-2bit"), case-insensitively.
func parseAutomaton(seg string) (core.AutomatonKind, error) {
	low := strings.ToLower(seg)
	for _, e := range automTokens {
		if e.tok == low {
			return e.kind, nil
		}
	}
	for _, k := range core.AllAutomata {
		if strings.ToLower(k.Name()) == low {
			return k, nil
		}
	}
	toks := make([]string, len(automTokens))
	for i, e := range automTokens {
		toks[i] = e.tok
	}
	return core.AutomatonKind{}, fmt.Errorf("engine: unknown automaton %q (have %s)", seg, strings.Join(toks, ", "))
}

// MaxBufferParam caps the ras<N>, lat<k> and dlat<k> parameters. Each
// sizes a buffer when the spec is built (the RAS ring, the training
// FIFO, the delayed-update queue or the speculative window), so Parse
// rejects larger values rather than let a spec string size an
// allocation. The experiment grids stay far below it (ras64, lat8,
// dlat8).
const MaxBufferParam = 4096

// FormatDOLC renders a DOLC as a grammar parameter segment
// ("d7-o5-l6-c6-f3"; the fold field is omitted when 1).
func FormatDOLC(d core.DOLC) string {
	s := fmt.Sprintf("d%d-o%d-l%d-c%d", d.Depth, d.Older, d.Last, d.Current)
	if d.Folds > 1 {
		s += fmt.Sprintf("-f%d", d.Folds)
	}
	return s
}

// parseParams splits a dash-separated parameter segment ("d7-c14-i14")
// into the integers following the given single-letter keys, in order.
// The last `optional` keys may be omitted; omitted values come back -1.
func parseParams(seg string, keys []string, optional int) ([]int, error) {
	parts := strings.Split(seg, "-")
	want := strings.Join(keys, "<n>-") + "<n>"
	if len(parts) < len(keys)-optional || len(parts) > len(keys) {
		return nil, fmt.Errorf("engine: parameter segment %q: want %s", seg, want)
	}
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = -1
	}
	for i, p := range parts {
		key := keys[i]
		if !strings.HasPrefix(p, key) || len(p) == len(key) {
			return nil, fmt.Errorf("engine: parameter segment %q: field %d must be %s<n>", seg, i+1, key)
		}
		n, err := strconv.Atoi(p[len(key):])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("engine: parameter segment %q: bad %s value %q", seg, key, p[len(key):])
		}
		vals[i] = n
	}
	return vals, nil
}

// parseDOLCSeg parses and validates a DOLC parameter segment.
func parseDOLCSeg(seg string) (core.DOLC, error) {
	v, err := parseParams(seg, []string{"d", "o", "l", "c", "f"}, 1)
	if err != nil {
		return core.DOLC{}, err
	}
	f := v[4]
	if f < 0 {
		f = 1
	}
	d := core.DOLC{Depth: v[0], Older: v[1], Last: v[2], Current: v[3], Folds: f}
	if err := d.Validate(); err != nil {
		return core.DOLC{}, fmt.Errorf("engine: %w", err)
	}
	return d, nil
}

// Parse parses a predictor spec string. The result's String method
// returns the canonical respelling.
func Parse(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("engine: empty predictor spec")
	}
	segs := strings.Split(s, ":")
	var sp *Spec
	var err error
	switch segs[0] {
	case "perfect":
		// perfect takes no parameters beyond the trailing spec flags
		// (perfect:spec:rlat<k> parameterizes the timing model's repair
		// charge while the oracle itself never rolls back).
		sp, err = finishSpec(&Spec{class: ClassPerfect}, segs[1:])
	case "composed":
		sp, err = parseComposed(segs[1:])
	case "cttb", "icttb":
		var buf *TargetSpec
		var rest []string
		if buf, rest, err = parseTarget(segs); err == nil {
			sp, err = finishSpec(&Spec{class: ClassTarget, buf: buf}, rest)
		}
	default:
		var exit *ExitSpec
		var rest []string
		if exit, rest, err = parseExit(segs); err == nil {
			sp, err = finishSpec(&Spec{class: ClassExit, exit: exit}, rest)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: spec %q: %w", s, unwrapPrefix(err))
	}
	return sp, nil
}

// finishSpec consumes the trailing speculative-update flags (":spec",
// ":rlat<k>") into sp, rejects anything left over, and validates the
// flag interactions.
func finishSpec(sp *Spec, rest []string) (*Spec, error) {
	sawRlat := false
	for len(rest) > 0 {
		switch seg := rest[0]; {
		case seg == "spec":
			sp.specUpdate = true
		case strings.HasPrefix(seg, "rlat") && isDigits(seg[4:]):
			n, err := strconv.Atoi(seg[4:])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("engine: bad rlat value %q", seg[4:])
			}
			sp.repairLat, sawRlat = n, true
		default:
			return nil, fmt.Errorf("engine: trailing segments %q", strings.Join(rest, ":"))
		}
		rest = rest[1:]
	}
	if sawRlat && !sp.specUpdate {
		return nil, fmt.Errorf("engine: rlat<k> is a speculative-update parameter (add the spec flag)")
	}
	if sp.specUpdate && sp.exit != nil && sp.exit.Lat > 0 {
		return nil, fmt.Errorf("engine: spec is incompatible with lat<k>; the dlat<k> session lag is the speculative update-timing model")
	}
	return sp, nil
}

// MustParse is Parse, panicking on error (for compile-time-constant
// specs).
func MustParse(s string) *Spec {
	sp, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// unwrapPrefix strips the "engine: " prefix from nested parse errors so
// wrapped messages do not stutter.
func unwrapPrefix(err error) error {
	msg := strings.TrimPrefix(err.Error(), "engine: ")
	return fmt.Errorf("%s", msg)
}

// parseExit consumes an exit predictor spec from the head of segs and
// returns the unconsumed tail.
func parseExit(segs []string) (*ExitSpec, []string, error) {
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("engine: missing exit predictor")
	}
	kind := segs[0]
	var es *ExitSpec
	var rest []string
	switch kind {
	case "path":
		if len(segs) < 3 {
			return nil, nil, fmt.Errorf("engine: path needs <dolc>:<automaton>")
		}
		d, err := parseDOLCSeg(segs[1])
		if err != nil {
			return nil, nil, err
		}
		a, err := parseAutomaton(segs[2])
		if err != nil {
			return nil, nil, err
		}
		es, rest = &ExitSpec{Scheme: SchemePath, DOLC: d, Depth: d.Depth, Automaton: a}, segs[3:]
	case "global":
		if len(segs) < 3 {
			return nil, nil, fmt.Errorf("engine: global needs d<D>-c<C>-i<I>:<automaton>")
		}
		v, err := parseParams(segs[1], []string{"d", "c", "i"}, 0)
		if err != nil {
			return nil, nil, err
		}
		a, err := parseAutomaton(segs[2])
		if err != nil {
			return nil, nil, err
		}
		if v[0] > core.MaxHistoryDepth || v[2] < 1 || v[2] > 30 {
			return nil, nil, fmt.Errorf("engine: global %s out of range (want d<=%d, i in 1..30)", segs[1], core.MaxHistoryDepth)
		}
		es = &ExitSpec{Scheme: SchemeGlobal, Depth: v[0], Current: v[1], Index: v[2], Automaton: a}
		rest = segs[3:]
	case "per":
		if len(segs) < 3 {
			return nil, nil, fmt.Errorf("engine: per needs d<D>-h<H>-t<T>-i<I>:<automaton>")
		}
		v, err := parseParams(segs[1], []string{"d", "h", "t", "i"}, 0)
		if err != nil {
			return nil, nil, err
		}
		a, err := parseAutomaton(segs[2])
		if err != nil {
			return nil, nil, err
		}
		if v[0] > core.MaxHistoryDepth || v[1] < 1 || v[1] > 24 || v[3] < 1 || v[3] > 30 {
			return nil, nil, fmt.Errorf("engine: per %s out of range (want d<=%d, h in 1..24, i in 1..30)", segs[1], core.MaxHistoryDepth)
		}
		es = &ExitSpec{Scheme: SchemePer, Depth: v[0], HRT: v[1], TaskBits: v[2], Index: v[3], Automaton: a}
		rest = segs[3:]
	case "ipath", "iglobal", "iper":
		if len(segs) < 3 {
			return nil, nil, fmt.Errorf("engine: %s needs d<D>:<automaton>", kind)
		}
		v, err := parseParams(segs[1], []string{"d"}, 0)
		if err != nil {
			return nil, nil, err
		}
		a, err := parseAutomaton(segs[2])
		if err != nil {
			return nil, nil, err
		}
		if v[0] > core.MaxHistoryDepth {
			return nil, nil, fmt.Errorf("engine: %s depth %d exceeds MaxHistoryDepth=%d", kind, v[0], core.MaxHistoryDepth)
		}
		scheme := map[string]Scheme{"ipath": SchemeIdealPath, "iglobal": SchemeIdealGlobal, "iper": SchemeIdealPer}[kind]
		es = &ExitSpec{Scheme: scheme, Depth: v[0], Automaton: a}
		rest = segs[3:]
	default:
		return nil, nil, fmt.Errorf("engine: unknown predictor kind %q", kind)
	}
	for len(rest) > 0 {
		consumed, err := es.applyFlag(rest[0])
		if err != nil {
			return nil, nil, err
		}
		if !consumed {
			break
		}
		rest = rest[1:]
	}
	return es, rest, nil
}

// applyFlag consumes one exit flag segment. It reports (false, nil) for
// segments that are not flags — the caller's cue to hand parsing over to
// the next component — and errors for flags that do not apply to the
// scheme.
func (e *ExitSpec) applyFlag(seg string) (bool, error) {
	pathOnly := func(name string) error {
		if e.Scheme != SchemePath {
			return fmt.Errorf("engine: flag %q only applies to path exit predictors", name)
		}
		return nil
	}
	num := func(prefix string) (int, error) {
		n, err := strconv.Atoi(seg[len(prefix):])
		if err != nil || n < 0 || n > MaxBufferParam {
			return 0, fmt.Errorf("engine: bad %s value %q (want 0..%d)", prefix, seg[len(prefix):], MaxBufferParam)
		}
		return n, nil
	}
	switch {
	case seg == "nosse":
		if err := pathOnly(seg); err != nil {
			return false, err
		}
		e.NoSSE = true
	case seg == "ssh":
		if err := pathOnly(seg); err != nil {
			return false, err
		}
		e.SSH = true
	case strings.HasPrefix(seg, "lat") && isDigits(seg[3:]):
		if err := pathOnly("lat"); err != nil {
			return false, err
		}
		n, err := num("lat")
		if err != nil {
			return false, err
		}
		e.Lat = n
	case strings.HasPrefix(seg, "dlat") && isDigits(seg[4:]):
		n, err := num("dlat")
		if err != nil {
			return false, err
		}
		e.DLat = n
	case strings.HasPrefix(seg, "seed") && isDigits(seg[4:]):
		if err := pathOnly("seed"); err != nil {
			return false, err
		}
		n, err := strconv.ParseUint(seg[4:], 10, 32)
		if err != nil {
			return false, fmt.Errorf("engine: bad seed value %q (want 0..%d)", seg[4:], uint32(math.MaxUint32))
		}
		e.Seed = uint32(n)
	default:
		return false, nil
	}
	return true, nil
}

// isDigits reports a non-empty all-digit string.
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseTarget consumes a target buffer spec from the head of segs.
func parseTarget(segs []string) (*TargetSpec, []string, error) {
	switch segs[0] {
	case "cttb":
		if len(segs) < 2 {
			return nil, nil, fmt.Errorf("engine: cttb needs a <dolc> segment")
		}
		d, err := parseDOLCSeg(segs[1])
		if err != nil {
			return nil, nil, err
		}
		return &TargetSpec{DOLC: d}, segs[2:], nil
	case "icttb":
		if len(segs) < 2 {
			return nil, nil, fmt.Errorf("engine: icttb needs a d<D> segment")
		}
		v, err := parseParams(segs[1], []string{"d"}, 0)
		if err != nil {
			return nil, nil, err
		}
		if v[0] > core.MaxHistoryDepth {
			return nil, nil, fmt.Errorf("engine: icttb depth %d exceeds MaxHistoryDepth=%d", v[0], core.MaxHistoryDepth)
		}
		return &TargetSpec{Ideal: true, Depth: v[0]}, segs[2:], nil
	default:
		return nil, nil, fmt.Errorf("engine: unknown target buffer kind %q", segs[0])
	}
}

// parseComposed parses the segments after "composed:".
func parseComposed(segs []string) (*Spec, error) {
	exit, rest, err := parseExit(segs)
	if err != nil {
		return nil, err
	}
	sp := &Spec{class: ClassTask, exit: exit, rasDepth: core.DefaultRASDepth}
	if len(rest) > 0 {
		switch {
		case rest[0] == "noras":
			sp.noRAS = true
			rest = rest[1:]
		case strings.HasPrefix(rest[0], "ras") && isDigits(rest[0][3:]):
			n, err := strconv.Atoi(rest[0][3:])
			if err != nil || n > MaxBufferParam {
				return nil, fmt.Errorf("engine: bad ras value %q (want 1..%d)", rest[0][3:], MaxBufferParam)
			}
			if n == 0 {
				return nil, fmt.Errorf("engine: RAS depth must be positive (use noras to drop the RAS)")
			}
			sp.rasDepth = n
			rest = rest[1:]
		}
	}
	if len(rest) > 0 && (rest[0] == "cttb" || rest[0] == "icttb") {
		buf, tail, err := parseTarget(rest)
		if err != nil {
			return nil, err
		}
		sp.buf = buf
		rest = tail
	}
	return finishSpec(sp, rest)
}

// String returns the spec's canonical form: a fixed point of Parse, used
// for journal keys and result labels.
func (s *Spec) String() string {
	var out string
	switch s.class {
	case ClassPerfect:
		out = "perfect"
	case ClassExit:
		out = s.exit.String()
	case ClassTarget:
		out = s.buf.String()
	case ClassTask:
		out = "composed:" + s.exit.String()
		if s.noRAS {
			out += ":noras"
		} else {
			out += fmt.Sprintf(":ras%d", s.rasDepth)
		}
		if s.buf != nil {
			out += ":" + s.buf.String()
		}
	default:
		return "invalid"
	}
	if s.specUpdate {
		out += ":spec"
		if s.repairLat > 0 {
			out += fmt.Sprintf(":rlat%d", s.repairLat)
		}
	}
	return out
}

// String renders the exit component canonically.
func (e *ExitSpec) String() string {
	var out string
	switch e.Scheme {
	case SchemePath:
		out = "path:" + FormatDOLC(e.DOLC) + ":" + AutomatonToken(e.Automaton)
	case SchemeGlobal:
		out = fmt.Sprintf("global:d%d-c%d-i%d:%s", e.Depth, e.Current, e.Index, AutomatonToken(e.Automaton))
	case SchemePer:
		out = fmt.Sprintf("per:d%d-h%d-t%d-i%d:%s", e.Depth, e.HRT, e.TaskBits, e.Index, AutomatonToken(e.Automaton))
	case SchemeIdealPath:
		out = fmt.Sprintf("ipath:d%d:%s", e.Depth, AutomatonToken(e.Automaton))
	case SchemeIdealGlobal:
		out = fmt.Sprintf("iglobal:d%d:%s", e.Depth, AutomatonToken(e.Automaton))
	case SchemeIdealPer:
		out = fmt.Sprintf("iper:d%d:%s", e.Depth, AutomatonToken(e.Automaton))
	}
	if e.NoSSE {
		out += ":nosse"
	}
	if e.SSH {
		out += ":ssh"
	}
	if e.Lat > 0 {
		out += fmt.Sprintf(":lat%d", e.Lat)
	}
	if e.DLat > 0 {
		out += fmt.Sprintf(":dlat%d", e.DLat)
	}
	if e.Seed != 0 {
		out += fmt.Sprintf(":seed%d", e.Seed)
	}
	return out
}

// String renders the target component canonically.
func (t *TargetSpec) String() string {
	if t.Ideal {
		return fmt.Sprintf("icttb:d%d", t.Depth)
	}
	return "cttb:" + FormatDOLC(t.DOLC)
}
