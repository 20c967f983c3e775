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
// Each kind is one row of the kinds table and each exit flag one row of
// exitFlags; Parse, String and the Build methods all read those rows.
//
// Spec.String returns the canonical form: Parse(s).String() is a fixed
// point, and cache keys and result labels use it so they survive
// cosmetic respellings of the same configuration.
//
// The engine's other half is the run model (run.go) and the
// deterministic worker-pool scheduler (sched.go).
package engine

import (
	"errors"
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

var classNames = [...]string{"exit", "target", "task", "perfect"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
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

// MaxBufferParam caps the ras<N>, lat<k> and dlat<k> parameters. Each
// sizes a buffer when the spec is built (the RAS ring, the training
// FIFO, the delayed-update queue or the speculative window), so Parse
// rejects larger values rather than let a spec string size an
// allocation. The experiment grids stay far below it (ras64, lat8,
// dlat8).
const MaxBufferParam = 4096

// addrBits is the width of an isa.Addr: the most task address bits a
// GLOBAL or PER index can take.
const addrBits = 32

// field is one dash-separated integer field of a kind's parameter
// segment ("c14" in "d7-c14-i14"), with its inclusive range.
type field struct {
	key      string
	min, max int
	// optional marks a trailing field that may be omitted; def is its
	// value then, and String elides it at that value.
	optional bool
	def      int
}

// kind is one row of the grammar: a predictor kind and everything
// Parse, String and the Build methods know about it. Exit kinds also
// take an automaton segment and the exit flags whose rows admit them.
type kind struct {
	name   string
	class  Class
	scheme Scheme // ClassExit only
	fields []field
	// dolc marks fields that spell a core.DOLC: DOLC.Validate checks
	// them together, and ExitDOLC/CTTBDOLC expose it.
	dolc bool
	exit func(p *part) (core.ExitPredictor, error)
	buf  func(p *part) (core.TargetBuffer, error)
}

// The exit flags, indices into exitFlags and part.flags.
const (
	flagNoSSE = iota
	flagSSH
	flagLat
	flagDLat
	flagSeed
	numFlags
)

// flag is one exit flag row: a bare word ("nosse") when max is 0, else
// a word and a value in 0..max ("lat4"). only names the one kind that
// takes the flag; "" admits every exit kind.
type flag struct {
	name string
	max  int
	only string
}

// exitFlags holds the flag rows in canonical order.
var exitFlags = [numFlags]flag{
	flagNoSSE: {name: "nosse", only: "path"},
	flagSSH:   {name: "ssh", only: "path"},
	flagLat:   {name: "lat", max: MaxBufferParam, only: "path"},
	flagDLat:  {name: "dlat", max: MaxBufferParam},
	flagSeed:  {name: "seed", max: math.MaxUint32, only: "path"},
}

var (
	depthField = field{key: "d", max: core.MaxHistoryDepth}
	depthOnly  = []field{depthField}
	// O, L and C take at most a task address's bits, the ranges
	// DOLC.Validate holds them to; Validate also refuses the bits a
	// depth does not use and bounds the folded index.
	dolcFields = []field{
		depthField,
		{key: "o", max: addrBits},
		{key: "l", max: addrBits},
		{key: "c", max: addrBits},
		{key: "f", min: 1, max: math.MaxInt32, optional: true, def: 1},
	}
	phtIndex = field{key: "i", min: 1, max: 30}
)

// kinds is the grammar's table of predictor kinds.
var kinds = []kind{
	{name: "perfect", class: ClassPerfect},
	{name: "path", class: ClassExit, scheme: SchemePath, fields: dolcFields, dolc: true,
		exit: func(p *part) (core.ExitPredictor, error) {
			return core.NewPathExit(*p.dolc(), p.autom, core.PathExitOptions{
				SkipSingleExit:        p.flags[flagNoSSE] == 0,
				SkipSingleExitHistory: p.flags[flagSSH] != 0,
				TrainLatency:          p.flags[flagLat],
				Seed:                  uint32(p.flags[flagSeed]),
			})
		}},
	{name: "global", class: ClassExit, scheme: SchemeGlobal,
		fields: []field{depthField, {key: "c", max: addrBits}, phtIndex},
		exit: func(p *part) (core.ExitPredictor, error) {
			return core.NewGlobalExit(p.vals[0], p.vals[1], p.vals[2], p.autom)
		}},
	{name: "per", class: ClassExit, scheme: SchemePer,
		fields: []field{depthField, {key: "h", min: 1, max: 24}, {key: "t", max: addrBits}, phtIndex},
		exit: func(p *part) (core.ExitPredictor, error) {
			return core.NewPerExit(p.vals[0], p.vals[1], p.vals[2], p.vals[3], p.autom)
		}},
	{name: "ipath", class: ClassExit, scheme: SchemeIdealPath, fields: depthOnly,
		exit: func(p *part) (core.ExitPredictor, error) { return core.NewIdealPath(p.vals[0], p.autom), nil }},
	{name: "iglobal", class: ClassExit, scheme: SchemeIdealGlobal, fields: depthOnly,
		exit: func(p *part) (core.ExitPredictor, error) { return core.NewIdealGlobal(p.vals[0], p.autom), nil }},
	{name: "iper", class: ClassExit, scheme: SchemeIdealPer, fields: depthOnly,
		exit: func(p *part) (core.ExitPredictor, error) { return core.NewIdealPer(p.vals[0], p.autom), nil }},
	{name: "cttb", class: ClassTarget, fields: dolcFields, dolc: true,
		buf: func(p *part) (core.TargetBuffer, error) { return core.NewCTTB(*p.dolc()) }},
	{name: "icttb", class: ClassTarget, fields: depthOnly,
		buf: func(p *part) (core.TargetBuffer, error) { return core.NewIdealCTTB(p.vals[0]), nil }},
}

// lookup returns the row named name, or nil.
func lookup(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// part is one parsed component of a spec: its kind's row and the values
// the spec gave that row's fields, automaton and flags.
type part struct {
	kind  *kind  // nil: the spec has no such component
	vals  [5]int // field values in row order; DOLC has the most fields
	autom core.AutomatonKind
	flags [numFlags]int // a set bare flag is 1
}

// ExitSpec is a parsed exit predictor description.
type ExitSpec struct {
	// Scheme is the predictor's history scheme.
	Scheme Scheme
	part
}

// TargetSpec is a parsed target buffer description.
type TargetSpec struct{ part }

// Spec is a parsed predictor specification. The zero value is not
// valid; obtain Specs from Parse.
type Spec struct {
	class    Class
	exit     ExitSpec
	buf      TargetSpec
	rasDepth int // resolved capacity (ClassTask); 0 for noras

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
func (s *Spec) Exit() *ExitSpec {
	if !s.HasExit() {
		return nil
	}
	return &s.exit
}

// Target returns the target buffer component (nil when absent).
func (s *Spec) Target() *TargetSpec {
	if !s.HasTarget() {
		return nil
	}
	return &s.buf
}

// HasExit reports whether the spec contains any exit predictor.
func (s *Spec) HasExit() bool { return s.exit.kind != nil }

// HasTarget reports whether the spec contains any target buffer.
func (s *Spec) HasTarget() bool { return s.buf.kind != nil }

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
	if !s.specUpdate {
		return 0
	}
	return s.exit.flags[flagDLat]
}

// RASDepth returns the effective return address stack capacity the spec
// builds: 0 when the spec carries no RAS at all (exit-only, target-only,
// perfect, or composed:...:noras).
func (s *Spec) RASDepth() int { return s.rasDepth }

// ExitDOLC returns the real path exit predictor's index function, or nil
// when the spec has no DOLC-indexed exit predictor.
func (s *Spec) ExitDOLC() *core.DOLC { return s.exit.dolc() }

// CTTBDOLC returns the real CTTB's index function, or nil when the spec
// has no DOLC-indexed target buffer.
func (s *Spec) CTTBDOLC() *core.DOLC { return s.buf.dolc() }

// dolc returns the DOLC a dolc row's fields spell, or nil for a part of
// another kind.
func (p *part) dolc() *core.DOLC {
	if p.kind == nil || !p.kind.dolc {
		return nil
	}
	v := p.vals
	return &core.DOLC{Depth: v[0], Older: v[1], Last: v[2], Current: v[3], Folds: v[4]}
}

// automTokens holds the grammar's compact token of each automaton of
// core.AllAutomata, in that order.
var automTokens = []string{"vc2mru", "vc2rand", "leh1", "vc3mru", "vc3rand", "leh2", "le"}

// AutomatonToken returns the grammar's compact token for an automaton
// kind ("leh2" for LEH-2bit), for callers composing spec strings.
func AutomatonToken(k core.AutomatonKind) string {
	for i, a := range core.AllAutomata {
		if a.Name() == k.Name() {
			return automTokens[i]
		}
	}
	return strings.ToLower(k.Name())
}

// parseAutomaton resolves an automaton segment: a compact token or a
// display name ("LEH-2bit"), case-insensitively.
func parseAutomaton(seg string) (core.AutomatonKind, error) {
	for i, a := range core.AllAutomata {
		if strings.EqualFold(automTokens[i], seg) || strings.EqualFold(a.Name(), seg) {
			return a, nil
		}
	}
	return core.AutomatonKind{}, fmt.Errorf("unknown automaton %q (have %s)", seg, strings.Join(automTokens, ", "))
}

// FormatDOLC renders a DOLC as a grammar parameter segment
// ("d7-o5-l6-c6-f3"; the fold field is omitted when 1).
func FormatDOLC(d core.DOLC) string {
	vals := []int{d.Depth, d.Older, d.Last, d.Current, d.Folds}
	return string(appendFields(nil, dolcFields, vals))
}

// appendFields renders a parameter segment, eliding optional fields at
// their default.
func appendFields(b []byte, fields []field, vals []int) []byte {
	for i, f := range fields {
		if f.optional && vals[i] == f.def {
			continue
		}
		if i > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(append(b, f.key...), int64(vals[i]), 10)
	}
	return b
}

// atoi is the grammar's one integer rule: decimal digits only (no sign)
// and a value in min..max.
func atoi(s string, min, max int) (int, bool) {
	n, err := strconv.ParseUint(s, 10, 63)
	return int(n), err == nil && n >= uint64(min) && n <= uint64(max)
}

// Parse parses a predictor spec string. The result's String method
// returns the canonical respelling.
func Parse(s string) (*Spec, error) {
	sp, err := parse(strings.TrimSpace(s))
	if err != nil {
		return nil, fmt.Errorf("engine: spec %q: %w", s, err)
	}
	return sp, nil
}

func parse(s string) (*Spec, error) {
	if s == "" {
		return nil, errors.New("empty predictor spec")
	}
	sp := &Spec{}
	segs := strings.Split(s, ":")
	if segs[0] == "composed" {
		return sp, sp.parseComposed(segs[1:])
	}
	p, rest, err := parsePart(segs)
	if err != nil {
		return nil, err
	}
	sp.class = p.kind.class
	sp.add(p)
	return sp, sp.finish(rest)
}

// parseComposed parses the segments after "composed:".
func (sp *Spec) parseComposed(segs []string) error {
	p, rest, err := parsePart(segs)
	if err != nil {
		return err
	}
	if p.kind.class != ClassExit {
		return fmt.Errorf("composed needs an exit predictor, not %s", p.kind.name)
	}
	sp.class, sp.rasDepth = ClassTask, core.DefaultRASDepth
	sp.add(p)
	if firstOf(rest) == "noras" {
		sp.rasDepth, rest = 0, rest[1:]
	} else if v, ok := strings.CutPrefix(firstOf(rest), "ras"); ok {
		if sp.rasDepth, ok = atoi(v, 1, MaxBufferParam); !ok {
			return fmt.Errorf("%s: want ras in 1..%d (noras drops the RAS)", rest[0], MaxBufferParam)
		}
		rest = rest[1:]
	}
	if k := lookup(firstOf(rest)); k != nil && k.class == ClassTarget {
		if p, rest, err = parsePart(rest); err != nil {
			return err
		}
		sp.add(p)
	}
	return sp.finish(rest)
}

// firstOf returns segs[0], or "" when segs is empty.
func firstOf(segs []string) string {
	if len(segs) == 0 {
		return ""
	}
	return segs[0]
}

// add stores a parsed component in its class's slot.
func (sp *Spec) add(p part) {
	switch p.kind.class {
	case ClassExit:
		sp.exit = ExitSpec{Scheme: p.kind.scheme, part: p}
	case ClassTarget:
		sp.buf = TargetSpec{part: p}
	}
}

// finish consumes the trailing speculative-update flags (":spec",
// ":rlat<k>"), rejects anything left over, and validates the flag
// interactions.
func (sp *Spec) finish(rest []string) error {
	sawRlat := false
	for i, seg := range rest {
		v, ok := strings.CutPrefix(seg, "rlat")
		switch {
		case seg == "spec":
			sp.specUpdate = true
		case !ok:
			return fmt.Errorf("trailing segments %q", strings.Join(rest[i:], ":"))
		default:
			if sp.repairLat, ok = atoi(v, 0, math.MaxInt); !ok {
				return fmt.Errorf("%s: want rlat in 0..%d", seg, math.MaxInt)
			}
			sawRlat = true
		}
	}
	if sawRlat && !sp.specUpdate {
		return errors.New("rlat<k> is a speculative-update parameter (add the spec flag)")
	}
	if sp.specUpdate && sp.exit.flags[flagLat] > 0 {
		return errors.New("spec is incompatible with lat<k>; the dlat<k> session lag is the speculative update-timing model")
	}
	return nil
}

// parsePart consumes one component from the head of segs by its kind's
// row: the kind name, the parameter segment, and for exit kinds the
// automaton and any exit flags. It returns the unconsumed tail.
func parsePart(segs []string) (part, []string, error) {
	k := lookup(firstOf(segs))
	if k == nil {
		return part{}, nil, fmt.Errorf("unknown predictor kind %q", firstOf(segs))
	}
	p := part{kind: k}
	rest := segs[1:]
	if len(k.fields) > 0 {
		if err := p.parseFields(firstOf(rest)); err != nil {
			return part{}, nil, err
		}
		rest = rest[1:]
	}
	if k.class != ClassExit {
		return p, rest, nil
	}
	var err error
	if p.autom, err = parseAutomaton(firstOf(rest)); err != nil {
		return part{}, nil, err
	}
	for rest = rest[1:]; len(rest) > 0; rest = rest[1:] {
		if ok, err := p.parseFlag(rest[0]); err != nil || !ok {
			return p, rest, err
		}
	}
	return p, rest, nil
}

// parseFields reads a parameter segment ("d7-c14-i14") into p.vals by
// the row's fields, then applies the row's cross-field check.
func (p *part) parseFields(seg string) error {
	k := p.kind
	rest, more := seg, true
	for i, f := range k.fields {
		if !more && f.optional {
			p.vals[i] = f.def
			continue
		}
		var tok string
		tok, rest, more = strings.Cut(rest, "-")
		v, ok := strings.CutPrefix(tok, f.key)
		if !ok {
			return fmt.Errorf("%s %q: field %d must be %s<n>", k.name, seg, i+1, f.key)
		}
		if p.vals[i], ok = atoi(v, f.min, f.max); !ok {
			return fmt.Errorf("%s %s: want %s in %d..%d", k.name, tok, f.key, f.min, f.max)
		}
	}
	if more {
		return fmt.Errorf("%s %q: more than %d fields", k.name, seg, len(k.fields))
	}
	if k.dolc {
		return p.dolc().Validate()
	}
	return nil
}

// parseFlag consumes one exit flag segment. It reports false for a
// segment that is no flag (neither a bare flag nor a valued flag's
// name), the cue to hand parsing to the next component, and errors for
// a flag the kind does not take or a value out of the flag's range.
func (p *part) parseFlag(seg string) (bool, error) {
	for i, f := range exitFlags {
		v, ok := strings.CutPrefix(seg, f.name)
		if !ok || f.max == 0 && v != "" {
			continue
		}
		if f.only != "" && f.only != p.kind.name {
			return false, fmt.Errorf("flag %q only applies to %s", f.name, f.only)
		}
		n := 1
		if f.max > 0 {
			if n, ok = atoi(v, 0, f.max); !ok {
				return false, fmt.Errorf("%s: want %s in 0..%d", seg, f.name, f.max)
			}
		}
		p.flags[i] = n
		return true, nil
	}
	return false, nil
}

// String returns the spec's canonical form: a fixed point of Parse, used
// for cache keys and result labels.
func (s *Spec) String() string {
	var buf [128]byte
	b := buf[:0]
	switch s.class {
	case ClassPerfect:
		b = append(b, ":perfect"...)
	case ClassTask:
		b = append(b, ":composed"...)
	}
	b = s.exit.appendTo(b)
	switch {
	case s.class != ClassTask:
	case s.rasDepth == 0:
		b = append(b, ":noras"...)
	default:
		b = strconv.AppendInt(append(b, ":ras"...), int64(s.rasDepth), 10)
	}
	b = s.buf.appendTo(b)
	if s.specUpdate {
		b = append(b, ":spec"...)
	}
	if s.repairLat > 0 {
		b = strconv.AppendInt(append(b, ":rlat"...), int64(s.repairLat), 10)
	}
	return string(b[1:])
}

// String renders the component canonically.
func (p *part) String() string { return string(p.appendTo(nil)[1:]) }

// appendTo renders the component canonically, each segment led by ':'.
func (p *part) appendTo(b []byte) []byte {
	if p.kind == nil {
		return b
	}
	b = append(append(b, ':'), p.kind.name...)
	if len(p.kind.fields) > 0 {
		b = appendFields(append(b, ':'), p.kind.fields, p.vals[:])
	}
	if p.kind.class != ClassExit {
		return b
	}
	b = append(append(b, ':'), AutomatonToken(p.autom)...)
	for i, f := range exitFlags {
		if p.flags[i] == 0 {
			continue
		}
		b = append(append(b, ':'), f.name...)
		if f.max > 0 {
			b = strconv.AppendInt(b, int64(p.flags[i]), 10)
		}
	}
	return b
}
