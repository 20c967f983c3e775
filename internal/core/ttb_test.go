package core

import (
	"testing"

	"multiscalar/internal/isa"
)

func TestCTTBLearnsTarget(t *testing.T) {
	b := MustCTTB(MustDOLC(0, 0, 0, 8, 1))
	if _, ok := b.Lookup(5); ok {
		t.Fatalf("cold buffer should miss")
	}
	b.Train(5, 100)
	if got, ok := b.Lookup(5); !ok || got != 100 {
		t.Fatalf("Lookup = %d,%v", got, ok)
	}
}

func TestCTTBHysteresis(t *testing.T) {
	b := MustCTTB(MustDOLC(0, 0, 0, 8, 1))
	b.Train(5, 100) // install, ctr=1
	b.Train(5, 100) // ctr=2
	b.Train(5, 200) // miss: ctr=1, target kept
	if got, _ := b.Lookup(5); got != 100 {
		t.Fatalf("one miss should not replace, got %d", got)
	}
	b.Train(5, 200) // ctr=0
	b.Train(5, 200) // replace
	if got, _ := b.Lookup(5); got != 200 {
		t.Fatalf("repeated misses should replace, got %d", got)
	}
}

func TestCTTBPathCorrelation(t *testing.T) {
	// Same current task, different paths: the correlated buffer keeps
	// separate entries; the naive TTB (depth 0) thrashes.
	cttb := MustCTTB(MustDOLC(2, 4, 4, 4, 1))
	trainVia := func(b TargetBuffer, pred isa.Addr, target isa.Addr) {
		b.Advance(pred)
		b.Advance(pred + 1)
		b.Train(9, target)
	}
	trainVia(cttb, 100, 1000)
	trainVia(cttb, 200, 2000)
	// Re-establish the first path and look up.
	cttb.Advance(100)
	cttb.Advance(101)
	if got, ok := cttb.Lookup(9); !ok || got != 1000 {
		t.Fatalf("correlated lookup = %d,%v; want 1000", got, ok)
	}
}

func TestNewTTBIsDepthZero(t *testing.T) {
	b := NewTTB(8)
	if b.DOLC().Depth != 0 || b.DOLC().IndexBits() != 8 {
		t.Fatalf("NewTTB built %v", b.DOLC())
	}
	if b.Name() != "TTB(0-0-0-8(1))" {
		t.Fatalf("Name = %q", b.Name())
	}
}

func TestCTTBStatesAndReset(t *testing.T) {
	b := MustCTTB(MustDOLC(0, 0, 0, 8, 1))
	b.Train(1, 10)
	b.Train(2, 20)
	if b.States() != 2 {
		t.Fatalf("States = %d", b.States())
	}
	b.Reset()
	if b.States() != 0 {
		t.Fatalf("Reset should clear states")
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatalf("Reset should clear entries")
	}
}

func TestIdealCTTBIsAliasFree(t *testing.T) {
	b := NewIdealCTTB(1)
	// Two contexts that a small real table could alias never collide.
	b.Advance(0x0001)
	b.Train(9, 111)
	b.Advance(0x4001)
	b.Train(9, 222)
	b.Advance(0x0001)
	if got, ok := b.Lookup(9); !ok || got != 111 {
		t.Fatalf("ideal lookup after path 0x0001 = %d,%v; want 111", got, ok)
	}
	b.Advance(0x4001)
	if got, ok := b.Lookup(9); !ok || got != 222 {
		t.Fatalf("ideal lookup after path 0x4001 = %d,%v; want 222", got, ok)
	}
	if b.States() != 2 {
		t.Fatalf("States = %d, want 2", b.States())
	}
}

var _ = []TargetBuffer{(*CTTB)(nil), (*IdealCTTB)(nil)} // interface checks
