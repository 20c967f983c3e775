package engine

import (
	"strconv"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/trace"
)

// noBlocks is an empty block source.
type noBlocks struct{}

func (noBlocks) NextBlock() (*trace.Block, error) { return nil, nil }

// roundTripCases pins the grammar: each accepted spelling and the
// canonical form it parses to.
var roundTripCases = []struct{ in, want string }{
	{"perfect", "perfect"},
	{"  perfect \n", "perfect"},

	// Exit predictors.
	{"path:d7-o5-l6-c6-f3:leh2", "path:d7-o5-l6-c6-f3:leh2"},
	{"path:d0-o0-l0-c14:leh2", "path:d0-o0-l0-c14:leh2"},
	// An explicit -f1 is dropped canonically.
	{"path:d0-o0-l0-c14-f1:leh2", "path:d0-o0-l0-c14:leh2"},
	// Display names are accepted case-insensitively for automata.
	{"path:d7-o5-l6-c6-f3:LEH-2bit", "path:d7-o5-l6-c6-f3:leh2"},
	{"path:d7-o5-l6-c6-f3:Le", "path:d7-o5-l6-c6-f3:le"},
	// Flags canonicalize to a fixed order regardless of input order.
	{"path:d7-o5-l6-c6-f3:leh2:ssh:nosse", "path:d7-o5-l6-c6-f3:leh2:nosse:ssh"},
	{"path:d7-o5-l6-c6-f3:leh2:lat4", "path:d7-o5-l6-c6-f3:leh2:lat4"},
	{"path:d7-o5-l6-c6-f3:leh2:dlat8", "path:d7-o5-l6-c6-f3:leh2:dlat8"},
	{"path:d2-o4-l5-c5:vc2rand:seed7", "path:d2-o4-l5-c5:vc2rand:seed7"},
	{"global:d7-c14-i14:leh2", "global:d7-c14-i14:leh2"},
	{"per:d7-h12-t14-i14:leh2", "per:d7-h12-t14-i14:leh2"},
	{"ipath:d7:leh2", "ipath:d7:leh2"},
	{"iglobal:d7:le", "iglobal:d7:le"},
	{"iper:d7:vc3mru", "iper:d7:vc3mru"},

	// Target buffers.
	{"cttb:d7-o4-l4-c5-f3", "cttb:d7-o4-l4-c5-f3"},
	{"icttb:d7", "icttb:d7"},

	// Composed task predictors: an unstated RAS resolves to the
	// default depth in the canonical form.
	{"composed:path:d7-o5-l6-c6-f3:leh2:cttb:d7-o4-l4-c5-f3",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:ras8:cttb:d7-o4-l4-c5-f3",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras8:cttb:d7-o4-l4-c5-f3"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:noras:cttb:d7-o4-l4-c5-f3",
		"composed:path:d7-o5-l6-c6-f3:leh2:noras:cttb:d7-o4-l4-c5-f3"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:ras8",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras8"},
	{"composed:global:d7-c14-i14:leh2:icttb:d7",
		"composed:global:d7-c14-i14:leh2:ras32:icttb:d7"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:nosse:ras32:cttb:d7-o4-l4-c5-f3",
		"composed:path:d7-o5-l6-c6-f3:leh2:nosse:ras32:cttb:d7-o4-l4-c5-f3"},

	// Speculative-update flags ride on every class, last in the
	// canonical order; an explicit rlat0 is dropped canonically.
	{"path:d7-o5-l6-c6-f3:leh2:spec", "path:d7-o5-l6-c6-f3:leh2:spec"},
	{"path:d7-o5-l6-c6-f3:leh2:spec:rlat8", "path:d7-o5-l6-c6-f3:leh2:spec:rlat8"},
	{"path:d7-o5-l6-c6-f3:leh2:rlat8:spec", "path:d7-o5-l6-c6-f3:leh2:spec:rlat8"},
	{"path:d7-o5-l6-c6-f3:leh2:spec:rlat0", "path:d7-o5-l6-c6-f3:leh2:spec"},
	{"path:d7-o5-l6-c6-f3:leh2:dlat4:spec", "path:d7-o5-l6-c6-f3:leh2:dlat4:spec"},
	{"global:d7-c14-i14:leh2:spec", "global:d7-c14-i14:leh2:spec"},
	{"ipath:d7:leh2:spec:rlat2", "ipath:d7:leh2:spec:rlat2"},
	{"cttb:d7-o4-l4-c5-f3:spec", "cttb:d7-o4-l4-c5-f3:spec"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:ras8:cttb:d7-o4-l4-c5-f3:spec:rlat8",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras8:cttb:d7-o4-l4-c5-f3:spec:rlat8"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:noras:spec",
		"composed:path:d7-o5-l6-c6-f3:leh2:noras:spec"},
	{"perfect:spec", "perfect:spec"},
	{"perfect:spec:rlat8", "perfect:spec:rlat8"},

	// Range limits: the largest value of each bounded integer parses.
	{"ipath:d11:leh2", "ipath:d11:leh2"},
	{"icttb:d11", "icttb:d11"},
	{"path:d2-o4-l5-c5:vc2rand:seed4294967295", "path:d2-o4-l5-c5:vc2rand:seed4294967295"},
	{"path:d7-o5-l6-c6-f3:leh2:lat4096", "path:d7-o5-l6-c6-f3:leh2:lat4096"},
	{"path:d7-o5-l6-c6-f3:leh2:dlat4096:spec", "path:d7-o5-l6-c6-f3:leh2:dlat4096:spec"},
	{"composed:path:d7-o5-l6-c6-f3:leh2:ras4096", "composed:path:d7-o5-l6-c6-f3:leh2:ras4096"},
	{"global:d11-c32-i30:leh2", "global:d11-c32-i30:leh2"},
	{"per:d11-h24-t32-i30:leh2", "per:d11-h24-t32-i30:leh2"},
	// Leading zeros are digits; the canonical form drops them.
	{"ipath:d07:leh2:dlat004", "ipath:d7:leh2:dlat4"},
}

// TestParseRoundTrip pins the grammar: every accepted spelling parses to
// a spec whose String() is the canonical form, and the canonical form is
// a fixed point of Parse ∘ String.
func TestParseRoundTrip(t *testing.T) {
	for _, c := range roundTripCases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
			continue
		}
		// Canonical form is a fixed point.
		again, err := Parse(c.want)
		if err != nil {
			t.Errorf("Parse(canonical %q): %v", c.want, err)
			continue
		}
		if got := again.String(); got != c.want {
			t.Errorf("canonical %q re-parses to %q", c.want, got)
		}
	}
}

// badSpecs are spellings Parse must refuse.
var badSpecs = []string{
	"",
	"   ",
	"bogus",
	"path",                           // missing parameters
	"path:d7-o5-l6-c6-f3",            // missing automaton
	"path:d7-o5-l6-c6-f3:nope",       // unknown automaton
	"path:d7-o5-l6-c6-f3:leh2:ras32", // ras is not an exit flag
	"path:d2-o4-l5-c5-f0:leh2",       // zero folds
	"path:o5-d7-l6-c6:leh2",          // fields out of order
	"perfect:now",                    // perfect takes no parameters
	"cttb:d7-o4-l4-c5-f3:leh2",       // buffers take no automaton
	"icttb:d7:leh2",                  // ideal buffer likewise
	"global:d7-c14-i14",              // missing automaton
	"per:d7-h12-i14:leh2",            // missing field
	"composed:cttb:d7-o4-l4-c5-f3",   // composed needs an exit predictor
	"composed:path:d7-o5-l6-c6-f3:leh2:ras0:cttb:d7-o4-l4-c5-f3",        // RAS must be positive
	"composed:path:d7-o5-l6-c6-f3:leh2:ras32:noras:cttb:d7-o4-l4-c5-f3", // contradictory
	"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:junk",  // trailing
	"path:d7-o5-l6-c6-f3:leh2:rlat8",                                    // rlat without spec
	"perfect:rlat8",                                                     // likewise on perfect
	"path:d7-o5-l6-c6-f3:leh2:lat4:spec",                                // lat conflicts with spec
	"path:d7-o5-l6-c6-f3:leh2:spec:nosse",                               // spec flags must come last
	"composed:path:d7-o5-l6-c6-f3:leh2:spec:ras8",                       // likewise before ras
	"path:d7-o5-l6-c6-f3:leh2:spec:spec:junk",                           // trailing after flags
	// Out-of-range integers: a typed parse error, never a build-time
	// panic or an allocation sized by the spec string.
	"ipath:d12:leh2",   // ideal depths stop at core.MaxHistoryDepth
	"iglobal:d12:leh2", // likewise
	"iper:d99:leh2",    // likewise
	"icttb:d12",        // likewise for the ideal buffer
	"composed:path:d7-o5-l6-c6-f3:leh2:ras4097",                     // ras above MaxBufferParam
	"composed:path:d7-o5-l6-c6-f3:leh2:ras4097:cttb:d7-o4-l4-c5-f3", // likewise before a buffer
	"composed:path:d7-o5-l6-c6-f3:leh2:ras99999999999999999999",     // ras beyond int
	"path:d7-o5-l6-c6-f3:leh2:lat4097",                              // lat above MaxBufferParam
	"path:d7-o5-l6-c6-f3:leh2:dlat4611686018427387904",              // dlat near 2^62
	"path:d7-o5-l6-c6-f3:leh2:dlat4611686018427387904:spec",         // the same as a spec-session lag
	"composed:ipath:d7:leh2:dlat4097:ras32:cttb:d7-o4-l4-c5-f3",     // dlat on a composed exit
	"path:d7-o5-l6-c6-f3:leh2:seed4294967296",                       // seed beyond uint32
	// Table widths the constructors refuse: rejected at parse time,
	// so every spec that parses also builds.
	"global:d12-c14-i14:leh2", // depth beyond core.MaxHistoryDepth
	"global:d7-c14-i31:leh2",  // index above 30 bits
	"global:d7-c14-i0:leh2",   // empty index
	"per:d12-h12-t14-i14:leh2",
	"per:d7-h25-t14-i14:leh2", // HRT above 24 bits
	"per:d7-h0-t14-i14:leh2",
	"per:d7-h12-t14-i31:leh2",
	// Address-bit fields stop at the 32 bits of a task address: a
	// wider one shifts the history out of the 64-bit index.
	"global:d7-c64-i14:leh2",
	"per:d7-h12-t99-i14:leh2",
	// Integers are digits only: no sign, in fields or flags.
	"ipath:d+7:leh2",
	"path:d7-o5-l6-c6-f3:leh2:lat+4",
	"path:d7-o5-l6-c6-f3:leh2:spec:rlat+4",
	"composed:path:d7-o5-l6-c6-f3:leh2:ras+8",
	// DOLC widths stop at the 32 bits of a task address, so
	// (D-1)·O + L + C cannot overflow.
	"path:d0-o0-l4611686018427387904-c4611686018427387904:leh2",
	"path:d7-o33-l6-c6-f3:leh2",
	"cttb:d7-o4-l4-c33",
	// Bits from a task the depth does not track: the index would ignore
	// them, so one predictor would have two spellings.
	"path:d1-o2-l3-c4:leh2", // O at depth 1
	"path:d0-o0-l2-c3:leh2", // L at depth 0
	"cttb:d0-o7-l0-c14",     // O at depth 0
	"composed:path:d1-o9-l6-c8:leh2:ras32",
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, s := range badSpecs {
		sp, err := Parse(s)
		if err == nil {
			t.Errorf("Parse(%q) accepted: %v", s, sp)
			continue
		}
		prefix := "engine: spec " + strconv.Quote(s) + ": "
		if msg := err.Error(); !strings.HasPrefix(msg, prefix) || strings.HasPrefix(msg[len(prefix):], "engine:") {
			t.Errorf("Parse(%q) error %q: want prefix %q, without a stutter", s, msg, prefix)
		}
	}
}

// TestParseNamesFieldRange pins that an out-of-range field or flag
// error names the field and its inclusive range.
func TestParseNamesFieldRange(t *testing.T) {
	for spec, want := range map[string]string{
		"global:d7-c64-i14:leh2":                  "c64: want c in 0..32",
		"per:d7-h12-t99-i14:leh2":                 "t99: want t in 0..32",
		"ipath:d+7:leh2":                          "d+7: want d in 0..11",
		"per:d7-h25-t14-i14:leh2":                 "h25: want h in 1..24",
		"path:d7-o5-l6-c6-f3:leh2:lat4097":        "lat4097: want lat in 0..4096",
		"path:d7-o5-l6-c6-f3:leh2:seed4294967296": "seed4294967296: want seed in 0..4294967295",
		"composed:ipath:d7:leh2:ras0":             "ras0: want ras in 1..4096",
		"path:d7-o5-l6-c40:leh2":                  "c40: want c in 0..32",
	} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", spec, err, want)
		}
	}
}

func TestSpecAccessors(t *testing.T) {
	std := MustParse("composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3")
	if std.Class() != ClassTask || !std.HasExit() || !std.HasTarget() {
		t.Fatalf("std spec misclassified: %v %v %v", std.Class(), std.HasExit(), std.HasTarget())
	}
	if d := std.RASDepth(); d != core.DefaultRASDepth {
		t.Fatalf("RASDepth = %d", d)
	}
	if d := std.ExitDOLC(); d == nil || *d != core.MustDOLC(7, 5, 6, 6, 3) {
		t.Fatalf("ExitDOLC = %v", d)
	}
	if d := std.CTTBDOLC(); d == nil || *d != core.MustDOLC(7, 4, 4, 5, 3) {
		t.Fatalf("CTTBDOLC = %v", d)
	}

	noras := MustParse("composed:path:d7-o5-l6-c6-f3:leh2:noras:cttb:d7-o4-l4-c5-f3")
	if noras.RASDepth() != 0 {
		t.Fatalf("noras RASDepth = %d", noras.RASDepth())
	}

	exitOnly := MustParse("path:d7-o5-l6-c6-f3:leh2")
	if exitOnly.Class() != ClassExit || exitOnly.HasTarget() || exitOnly.RASDepth() != 0 {
		t.Fatalf("exit-only spec misclassified")
	}

	ideal := MustParse("iglobal:d7:leh2")
	if ideal.ExitDOLC() != nil {
		t.Fatalf("ideal GLOBAL has no DOLC, got %v", ideal.ExitDOLC())
	}

	icttb := MustParse("icttb:d7")
	if icttb.Class() != ClassTarget || icttb.CTTBDOLC() != nil {
		t.Fatalf("ideal CTTB misclassified")
	}

	perfect := MustParse("perfect")
	if perfect.Class() != ClassPerfect || perfect.HasExit() || perfect.HasTarget() {
		t.Fatalf("perfect misclassified")
	}

	if std.SpecUpdate() || std.RepairLat() != 0 || std.SpecLag() != 0 {
		t.Fatalf("idealized spec reports spec-update parameters")
	}
	spec := MustParse("path:d7-o5-l6-c6-f3:leh2:dlat4:spec:rlat8")
	if !spec.SpecUpdate() || spec.RepairLat() != 8 || spec.SpecLag() != 4 {
		t.Fatalf("spec flags not surfaced: %v %d %d", spec.SpecUpdate(), spec.RepairLat(), spec.SpecLag())
	}
	// In spec mode dlat is the session lag, not a DelayedUpdate wrap: the
	// spec kernel must accept the built predictor (its session refuses
	// the wrapper).
	p, err := spec.BuildExit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateExitSpecBlocks(noBlocks{}, p, spec.SpecLag()); err != nil {
		t.Fatalf("spec-mode exit predictor refused by session: %v", err)
	}
}

func TestBuildClasses(t *testing.T) {
	// A composed spec builds a task predictor named by its canonical form.
	std := "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"
	p, err := Build(std)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Name() != std {
		t.Fatalf("Build(%q).Name() = %q", std, p.Name())
	}

	// Perfect builds to nil (the timing model's oracle convention).
	if p, err := Build("perfect"); err != nil || p != nil {
		t.Fatalf("Build(perfect) = %v, %v", p, err)
	}

	// Exit-only specs cannot build a task predictor.
	if _, err := Build("path:d7-o5-l6-c6-f3:leh2"); err == nil {
		t.Fatal("Build accepted a bare exit spec as a task predictor")
	}

	// But they build exit predictors; buffers build target buffers.
	for _, s := range []string{"path:d7-o5-l6-c6-f3:leh2", "global:d7-c14-i14:leh2",
		"per:d7-h12-t14-i14:leh2", "ipath:d7:leh2", "iglobal:d7:le", "iper:d7:vc3mru",
		"path:d7-o5-l6-c6-f3:leh2:dlat4"} {
		if _, err := MustParse(s).BuildExit(); err != nil {
			t.Errorf("BuildExit(%q): %v", s, err)
		}
	}
	for _, s := range []string{"cttb:d7-o4-l4-c5-f3", "icttb:d7"} {
		if _, err := MustParse(s).BuildTarget(); err != nil {
			t.Errorf("BuildTarget(%q): %v", s, err)
		}
	}

	// A target spec evaluated as a task predictor is CTTB-only.
	only, err := MustParse("cttb:d7-o5-l6-c6-f3").BuildTask()
	if err != nil || only == nil {
		t.Fatalf("cttb BuildTask: %v, %v", only, err)
	}
}
