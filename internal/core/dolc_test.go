package core

import (
	"testing"
	"testing/quick"

	"multiscalar/internal/isa"
)

func TestDOLCNotation(t *testing.T) {
	d := MustDOLC(6, 5, 8, 9, 3)
	if got := d.String(); got != "6-5-8-9(3)" {
		t.Fatalf("String() = %q", got)
	}
	if got := d.IntermediateBits(); got != 42 {
		t.Fatalf("IntermediateBits = %d, want 42 (the paper's worked example)", got)
	}
	if got := d.IndexBits(); got != 14 {
		t.Fatalf("IndexBits = %d, want 14", got)
	}
	if got := d.TableSize(); got != 16384 {
		t.Fatalf("TableSize = %d, want 16K (the paper's worked example)", got)
	}
}

func TestDOLCValidate(t *testing.T) {
	bad := []DOLC{
		{Depth: -1, Current: 14, Folds: 1},
		{Depth: 2, Older: 5, Last: 5, Current: 5, Folds: 2}, // 15 % 2 != 0
		{Depth: 0, Older: 0, Last: 0, Current: 0, Folds: 1}, // empty
		{Depth: 1, Last: 7, Current: 7, Folds: 0},           // F < 1
		{Depth: MaxHistoryDepth + 1, Older: 1, Last: 1, Current: 1, Folds: 1},
		{Depth: 1, Older: 2, Last: 3, Current: 4, Folds: 1},   // O unused at depth 1
		{Depth: 0, Last: 2, Current: 3, Folds: 1},             // L unused at depth 0
		{Depth: 0, Older: 7, Current: 14, Folds: 1},           // O unused at depth 0
		{Depth: 7, Older: 33, Last: 6, Current: 6, Folds: 3},  // wider than an address
		{Depth: 1, Last: 1 << 62, Current: 1 << 62, Folds: 1}, // would overflow the width
		{Depth: 2, Older: -1, Last: 5, Current: 5, Folds: 1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%v) should fail", d)
		}
	}
	good := []DOLC{
		{Depth: 0, Current: 14, Folds: 1},
		{Depth: 7, Older: 5, Last: 6, Current: 6, Folds: 3},
	}
	for _, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", d, err)
		}
	}
}

func TestDOLCIndexInRange(t *testing.T) {
	f := func(addrs []uint16, cur uint16) bool {
		var h PathHistory
		for _, a := range addrs {
			h.Push(isa.Addr(a))
		}
		for _, d := range []DOLC{
			MustDOLC(0, 0, 0, 14, 1),
			MustDOLC(3, 6, 8, 8, 2),
			MustDOLC(7, 5, 6, 6, 3),
			MustDOLC(7, 4, 4, 5, 3),
		} {
			idx := d.Index(&h, isa.Addr(cur))
			if int(idx) >= d.TableSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDOLCDepth0IgnoresHistory(t *testing.T) {
	d := MustDOLC(0, 0, 0, 14, 1)
	var h1, h2 PathHistory
	h1.Push(100)
	h2.Push(23941)
	if d.Index(&h1, 77) != d.Index(&h2, 77) {
		t.Fatalf("depth-0 index must ignore history")
	}
}

func TestDOLCCurrentBitsSelectLowBits(t *testing.T) {
	d := MustDOLC(0, 0, 0, 8, 1)
	var h PathHistory
	if got := d.Index(&h, 0x3FF); got != 0xFF {
		t.Fatalf("index = %#x, want low 8 bits 0xFF", got)
	}
}

// Property: folding XORs F equal fields of the intermediate index.
func TestDOLCFoldMatchesReference(t *testing.T) {
	f := func(a1, a2, a3, cur uint16) bool {
		var h PathHistory
		h.Push(isa.Addr(a3))
		h.Push(isa.Addr(a2))
		h.Push(isa.Addr(a1))         // most recent
		d := MustDOLC(3, 6, 8, 8, 2) // 42 intermediate? (3-1)*6+8+8 = 28 -> 14 bits
		// Reference construction.
		inter := uint64(a3 & 0x3F)
		inter = inter<<6 | uint64(a2&0x3F)
		inter = inter<<8 | uint64(a1&0xFF)
		inter = inter<<8 | uint64(cur&0xFF)
		want := uint32(inter&0x3FFF) ^ uint32(inter>>14&0x3FFF)
		return d.Index(&h, isa.Addr(cur)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustDOLCPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustDOLC should panic on invalid config")
		}
	}()
	MustDOLC(2, 5, 5, 5, 2)
}

func TestPaperDOLCFamiliesAreConsistent(t *testing.T) {
	// Every exit-study configuration folds to 14 bits; every CTTB-study
	// configuration folds to 11 bits; depth equals the slice index.
	exit := []DOLC{
		MustDOLC(0, 0, 0, 14, 1), MustDOLC(1, 0, 7, 7, 1), MustDOLC(2, 4, 5, 5, 1),
		MustDOLC(3, 6, 8, 8, 2), MustDOLC(4, 5, 6, 7, 2), MustDOLC(5, 4, 6, 6, 2),
		MustDOLC(6, 5, 8, 9, 3), MustDOLC(7, 5, 6, 6, 3),
	}
	for i, d := range exit {
		if d.Depth != i || d.IndexBits() != 14 {
			t.Errorf("exit config %v: depth %d bits %d", d, d.Depth, d.IndexBits())
		}
	}
	cttb := []DOLC{
		MustDOLC(0, 0, 0, 11, 1), MustDOLC(1, 0, 5, 6, 1), MustDOLC(2, 3, 3, 5, 1),
		MustDOLC(3, 5, 6, 6, 2), MustDOLC(4, 4, 5, 5, 2), MustDOLC(5, 5, 6, 7, 3),
		MustDOLC(6, 4, 6, 7, 3), MustDOLC(7, 4, 4, 5, 3),
	}
	for i, d := range cttb {
		if d.Depth != i || d.IndexBits() != 11 {
			t.Errorf("cttb config %v: depth %d bits %d", d, d.Depth, d.IndexBits())
		}
	}
}

// The predictors' incremental index (dolcPath) must equal DOLC.Index over
// the same history at every step: across depths 0–MaxHistoryDepth, with
// intermediate indexes wider than 64 bits, and after the ring is changed
// behind push's back and resynced (a rolled-back push, fault injection).
func TestDOLCPathMatchesIndex(t *testing.T) {
	cfgs := []DOLC{
		MustDOLC(0, 0, 0, 12, 1),
		MustDOLC(0, 0, 0, 14, 2),
		MustDOLC(1, 0, 7, 7, 1),
		MustDOLC(2, 4, 4, 4, 1),
		MustDOLC(7, 5, 6, 6, 3),
		MustDOLC(7, 4, 4, 5, 3),
		MustDOLC(9, 3, 4, 4, 2),
		MustDOLC(MaxHistoryDepth, 0, 8, 8, 1),
		MustDOLC(MaxHistoryDepth, 8, 10, 10, 5),  // 100-bit intermediate
		MustDOLC(MaxHistoryDepth, 16, 16, 16, 8), // 192-bit intermediate
	}
	r := newRNG(42)
	for _, d := range cfgs {
		p := newDOLCPath(d)
		for step := 0; step < 2000; step++ {
			cur := isa.Addr(r.next())
			if got, want := p.index(cur), d.Index(&p.hist, cur); got != want {
				t.Fatalf("%v step %d: dolcPath index %#x, DOLC.Index %#x", d, step, got, want)
			}
			switch r.intn(16) {
			case 0:
				prev := p.hist
				p.push(cur)
				p.hist = prev
				p.resync()
			case 1:
				p.hist.FlipBit(func(n int) int { return r.intn(n) })
				p.resync()
			default:
				p.push(cur)
			}
		}
	}
}
