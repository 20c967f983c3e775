package core

import (
	"testing"

	"multiscalar/internal/isa"
)

// fixedRnd returns a deterministic rnd closure over a byte script.
func fixedRnd(script ...int) func(int) int {
	i := 0
	return func(n int) int {
		if n <= 0 {
			return 0
		}
		v := script[i%len(script)]
		i++
		return v % n
	}
}

func TestCorruptPHTEmpty(t *testing.T) {
	p := MustPathExit(MustDOLC(2, 4, 5, 5, 1), LEH2, PathExitOptions{})
	if p.CorruptCounter(fixedRnd(0)) {
		t.Fatal("corrupting an untouched PHT reported an injection")
	}
}

func TestCorruptCounterFlipsPrediction(t *testing.T) {
	// A single LE automaton trained to exit 0: flipping its stored exit
	// bit must change the prediction.
	le := newPacked(LE, nil)
	le.Update(0)
	if got := le.Predict(); got != 0 {
		t.Fatalf("trained LE predicts %d, want 0", got)
	}
	le.s = LE.flipBit(le.s, fixedRnd(0))
	if got := le.Predict(); got == 0 {
		t.Fatal("bit flip left the LE prediction unchanged")
	}
}

func TestAutomataFlipBitStaysInRange(t *testing.T) {
	// Exhaustively flip every reachable bit of every automaton kind;
	// predictions must stay valid exit numbers and updates must not
	// panic.
	for _, kind := range AllAutomata {
		a := newPacked(kind, seeded(7))
		for trial := 0; trial < 200; trial++ {
			a.Update(trial % 4)
			a.s = kind.flipBit(a.s, fixedRnd(trial, trial/2, trial/3))
			if a.s&autTouched == 0 {
				t.Fatalf("%s: bit flip cleared the touched bit", kind.Name())
			}
			if got := a.Predict(); got < 0 || got > 3 {
				t.Fatalf("%s predicts %d after bit flip, outside [0,3]", kind.Name(), got)
			}
		}
	}
}

func TestPathHistoryFlipBit(t *testing.T) {
	var h PathHistory
	for i := 1; i <= 5; i++ {
		h.Push(isa.Addr(i * 100))
	}
	before := h.At(1)
	// Flip a bit of the most recent entry (ring index = head).
	h.FlipBit(fixedRnd(h.head, 3))
	if h.At(1) == before {
		t.Fatal("history bit flip left the most recent entry unchanged")
	}
}

func TestCTTBCorruptEntry(t *testing.T) {
	b := MustCTTB(MustDOLC(0, 0, 0, 4, 1))
	if b.CorruptEntry(fixedRnd(0)) {
		t.Fatal("corrupting an empty CTTB reported an injection")
	}
	b.Train(3, 77)
	b.Advance(3)
	// Script: start scan at 0, corruption mode 0 (target bit flip), bit 2.
	if !b.CorruptEntry(fixedRnd(0, 0, 2)) {
		t.Fatal("corrupting a trained CTTB failed")
	}
	if got, ok := b.Lookup(3); ok && got == 77 {
		t.Fatalf("entry survived corruption untouched: %v", got)
	}
}

// TestCTTBInvalidatingUpsetCountsStates holds States to a recount of the
// valid entries while invalidating upsets empty the buffer, and checks
// that an emptied buffer still takes the start draw and injects nothing.
func TestCTTBInvalidatingUpsetCountsStates(t *testing.T) {
	b := MustCTTB(MustDOLC(0, 0, 0, 4, 1))
	for a := isa.Addr(0); a < 6; a++ {
		b.Train(a, 100+a)
	}
	recount := func() int {
		n := 0
		for _, e := range b.entries {
			if e.valid {
				n++
			}
		}
		return n
	}
	for i := 0; i < 8; i++ {
		// Script: start at entry i, corruption mode 2 (invalidate).
		hit := b.CorruptEntry(fixedRnd(i, 2))
		if hit != (i < 6) {
			t.Fatalf("upset %d: injected = %v", i, hit)
		}
		if got, want := b.States(), recount(); got != want {
			t.Fatalf("upset %d: States() = %d, recount = %d", i, got, want)
		}
	}
	draws := 0
	b.CorruptEntry(func(n int) int { draws++; return 0 })
	if draws != 1 {
		t.Fatalf("empty CTTB took %d draws, want the start draw only", draws)
	}
}

func TestRASCorrupt(t *testing.T) {
	s := NewRAS(4)
	if s.Corrupt(fixedRnd(0)) {
		t.Fatal("corrupting an empty RAS reported an injection")
	}
	s.Push(100)
	s.Push(200)

	// Mode 2: bit flip in the top entry.
	if !s.Corrupt(fixedRnd(2, 3)) {
		t.Fatal("bit-flip corruption failed")
	}
	if top, ok := s.Top(); !ok || top == 200 {
		t.Fatalf("top unchanged after bit flip: %v %v", top, ok)
	}

	// Mode 0: pop-drop loses one live entry.
	sizeBefore := s.Size()
	if !s.Corrupt(fixedRnd(0)) {
		t.Fatal("pop-drop corruption failed")
	}
	if s.Size() != sizeBefore-1 {
		t.Fatalf("pop-drop size %d, want %d", s.Size(), sizeBefore-1)
	}
}

func TestRASMarkRepair(t *testing.T) {
	s := NewRAS(4)
	s.Push(10)
	s.Push(20)
	m := s.Mark()

	// Deep wrong-path activity, including overflow wraparound.
	for i := 0; i < 10; i++ {
		s.Push(isa.Addr(1000 + i))
	}
	s.Pop()
	s.Pop()

	s.Repair(m)
	if top, ok := s.Top(); !ok || top != 20 {
		t.Fatalf("after repair Top = (%v, %v), want (20, true)", top, ok)
	}
	if s.Size() != 2 {
		t.Fatalf("after repair Size = %d, want 2", s.Size())
	}
}

func TestGlobalAndPerCorruptHistory(t *testing.T) {
	g, err := NewGlobalExit(4, 8, 10, LEH2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.CorruptHistory(fixedRnd(3)) {
		t.Fatal("GlobalExit history corruption failed")
	}
	g0, err := NewGlobalExit(0, 8, 10, LEH2)
	if err != nil {
		t.Fatal(err)
	}
	if g0.CorruptHistory(fixedRnd(0)) {
		t.Fatal("depth-0 GlobalExit has no history bits to corrupt")
	}

	p, err := NewPerExit(4, 6, 8, 10, LEH2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CorruptHistory(fixedRnd(5, 2)) {
		t.Fatal("PerExit history corruption failed")
	}
}
