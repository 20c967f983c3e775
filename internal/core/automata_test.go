package core

import (
	"testing"
	"testing/quick"
)

// packedAut drives a kind's packed transition functions as a stateful
// automaton, the way one PHT entry sees them.
type packedAut struct {
	k AutomatonKind
	s uint16
	r *rng
}

func newPacked(k AutomatonKind, r *rng) *packedAut { return &packedAut{k: k, s: autTouched, r: r} }

func (a *packedAut) Predict() int      { return a.k.predict(a.s, a.r) }
func (a *packedAut) Update(actual int) { a.s = a.k.update(a.s, actual) }

// ctr returns voting counter i of a VC automaton.
func (a *packedAut) ctr(i int) uint16 { return a.s >> (vcCtrBits * i) & vcCtrMask }

func seeded(seed uint32) *rng { r := newRNG(seed); return &r }

func TestLastExitTracksLast(t *testing.T) {
	a := newPacked(LE, nil)
	if got := a.Predict(); got != 0 {
		t.Fatalf("initial prediction %d, want 0", got)
	}
	for _, e := range []int{2, 1, 3, 0, 3} {
		a.Update(e)
		if got := a.Predict(); got != e {
			t.Fatalf("after update(%d): predict %d", e, got)
		}
	}
}

func TestLEHRequiresTwoMissesToFlip(t *testing.T) {
	// LEH-1: one correct prediction arms hysteresis; one miss drains it;
	// the second miss replaces.
	a := newPacked(LEH1, nil)
	a.Update(2) // ctr=0, exit stays 0... update(2) with exit=0,ctr=0 -> replace
	if got := a.Predict(); got != 2 {
		t.Fatalf("cold automaton should adopt first outcome, got %d", got)
	}
	a.Update(2) // correct: ctr=1
	a.Update(3) // wrong: ctr back to 0, prediction kept
	if got := a.Predict(); got != 2 {
		t.Fatalf("single miss must not flip LEH, got %d", got)
	}
	a.Update(3) // wrong with ctr=0: replace
	if got := a.Predict(); got != 3 {
		t.Fatalf("second miss must flip LEH, got %d", got)
	}
}

func TestLEH2SurvivesThreeMissesWhenSaturated(t *testing.T) {
	a := newPacked(LEH2, nil)
	a.Update(1)
	for i := 0; i < 10; i++ {
		a.Update(1) // saturate ctr at 3
	}
	for i := 0; i < 3; i++ {
		a.Update(2)
		if got := a.Predict(); got != 1 {
			t.Fatalf("miss %d flipped a saturated LEH-2 (got %d)", i+1, got)
		}
	}
	a.Update(2)
	if got := a.Predict(); got != 2 {
		t.Fatalf("fourth miss should flip a saturated LEH-2, got %d", got)
	}
}

func TestVotingCountersPreferHighest(t *testing.T) {
	for _, kind := range []AutomatonKind{VC2MRU, VC2Random, VC3MRU, VC3Random} {
		a := newPacked(kind, seeded(7))
		for i := 0; i < 4; i++ {
			a.Update(2)
		}
		a.Update(1)
		if got := a.Predict(); got != 2 {
			t.Errorf("%s: predict %d, want dominant exit 2", kind.Name(), got)
		}
	}
}

func TestVotingCountersMRUTieBreak(t *testing.T) {
	a := newPacked(VC2MRU, nil)
	// Alternate 1 and 3: counters oscillate; after update(3) both end
	// equal at some point and MRU must win.
	a.Update(1)
	a.Update(3)
	a.Update(1)
	a.Update(3)
	// ctr[1] and ctr[3] are now tied (each incremented twice, decremented
	// twice... verify tie exists before asserting).
	if a.ctr(1) == a.ctr(3) {
		if got := a.Predict(); got != 3 {
			t.Fatalf("MRU tie-break should pick 3, got %d", got)
		}
	}
}

func TestVotingCountersRandomTieBreakIsDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		a := newPacked(VC2Random, seeded(99))
		var seq []int
		for i := 0; i < 16; i++ {
			seq = append(seq, a.Predict())
			a.Update(i % 4)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random tie-break is not reproducible at step %d: %v vs %v", i, a, b)
		}
	}
}

// Property: every automaton converges to a constant input after enough
// repetitions, and never predicts outside [0, 4).
func TestAutomataConvergeAndStayInRange(t *testing.T) {
	f := func(updates []uint8, final uint8) bool {
		target := int(final % 4)
		for _, kind := range AllAutomata {
			a := newPacked(kind, seeded(5))
			for _, u := range updates {
				a.Update(int(u % 4))
				if p := a.Predict(); p < 0 || p >= 4 {
					return false
				}
			}
			for i := 0; i < 8; i++ {
				a.Update(target)
			}
			if a.Predict() != target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutomatonStorageBitsOrdering(t *testing.T) {
	// The paper's size argument: LEH-2 must be cheaper than the 3-bit
	// voting counters it matches in accuracy.
	if !(LEH2.Bits < VC3Random.Bits && VC3Random.Bits <= VC3MRU.Bits) {
		t.Fatalf("storage costs out of order: LEH2=%d VC3R=%d VC3M=%d",
			LEH2.Bits, VC3Random.Bits, VC3MRU.Bits)
	}
	if !(LE.Bits < LEH1.Bits && LEH1.Bits < LEH2.Bits) {
		t.Fatalf("LE family storage out of order")
	}
}
