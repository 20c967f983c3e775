package engine_test

import (
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
)

// maxFuzzTableBits bounds the tables FuzzParse builds: a 30-bit PHT is a
// valid spec but a 2 GiB allocation per fuzz input.
const maxFuzzTableBits = 18

// FuzzParse holds the spec grammar to three properties on arbitrary
// strings: Parse never panics; the String of an accepted spec is a fixed
// point of Parse; and building the components an accepted spec's class
// has returns a predictor or an error, never a panic. Seeds are the
// parse tests' tables (which hold every spec seed of mserve's
// FuzzEvalDecode) and the experiment grids' specs.
func FuzzParse(f *testing.F) {
	for _, s := range append(engine.ParseSeeds(), experiments.AllSpecs()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := engine.Parse(s)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := engine.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q does not parse: %v", s, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q): canonical %q re-parses to %q", s, canon, got)
		}
		if sp.TableBits() > maxFuzzTableBits {
			return
		}
		if sp.HasExit() {
			if p, err := sp.BuildExit(); err == nil && p == nil {
				t.Fatalf("BuildExit(%q) returned neither a predictor nor an error", canon)
			}
		}
		if sp.HasTarget() {
			if b, err := sp.BuildTarget(); err == nil && b == nil {
				t.Fatalf("BuildTarget(%q) returned neither a buffer nor an error", canon)
			}
		}
		if sp.Class() != engine.ClassExit {
			p, err := sp.BuildTask()
			if err == nil && p == nil && sp.Class() != engine.ClassPerfect {
				t.Fatalf("BuildTask(%q) returned neither a predictor nor an error", canon)
			}
		}
	})
}
