package core

import (
	"math/bits"

	"multiscalar/internal/tfg"
)

// TiePolicy selects how voting-counter automata resolve ties between
// equally-high counters.
type TiePolicy uint8

const (
	// TieMRU picks the most recently used exit among the tied counters
	// (requires extra storage, as the paper notes).
	TieMRU TiePolicy = iota
	// TieRandom picks pseudo-randomly among the tied counters.
	TieRandom
)

func (p TiePolicy) String() string {
	if p == TieMRU {
		return "MRU"
	}
	return "RANDOM"
}

// autClass is the transition family of an automaton kind.
type autClass uint8

const (
	classLE  autClass = iota // last exit
	classLEH                 // last exit with hysteresis
	classVC                  // voting counters
)

// AutomatonKind identifies one of the seven multi-way prediction
// automata compared in the paper's Figure 6 — the per-entry state of a
// pattern history table, generalizing the 2-bit saturating counter of
// scalar branch prediction to the up-to-four-way exit choice (§5.1).
//
// An automaton's whole state is one packed uint16 (see the layout
// below); a kind is the pure transition function over it, so a PHT is a
// flat []uint16 and an undo-log checkpoint is a copy of one word.
//
// Packed layout. Bit 15 (autTouched) marks an entry that has been
// allocated — every live state has it set, so a zero word is an
// untouched PHT slot. The remaining bits hold the training state:
//
//	LE:   bits 0-1 last exit
//	LEH:  bits 0-1 stored exit, bits 8-9 hysteresis counter
//	VC:   bits 3i..3i+2 counter of exit i (i = 0..3), bits 12-13 MRU
//	      exit
//
// A fresh voting counter's MRU field reads exit 0. The paper's model has
// no MRU exit until the first update, but the two agree: MRU breaks a
// tie toward exit 0 only when exit 0 is tied, and then exit 0 is also
// the lowest tied exit, which is what a missing MRU exit picks.
type AutomatonKind struct {
	name  string
	class autClass
	max   uint16 // saturation value: LEH 1 or 3, VC 3 or 7
	tie   TiePolicy
	// Bits is the storage cost per PHT entry in bits, used for sizing
	// comparisons (an LEH-2 entry is 4 bits: 2-bit exit + 2-bit counter).
	Bits int
}

// Name returns the kind's display name (e.g. "LEH-2bit", "3bit-VC-MRU").
func (k AutomatonKind) Name() string { return k.name }

// The automata of Figure 6.
var (
	// LE records only the last exit taken (a degenerate 1-bit-per-counter
	// voting scheme); highest miss rate in the paper.
	LE = AutomatonKind{name: "LE", class: classLE, Bits: 2}

	// LEH1 is last-exit with a 1-bit hysteresis counter.
	LEH1 = AutomatonKind{name: "LEH-1bit", class: classLEH, max: 1, Bits: 3}

	// LEH2 is last-exit with a 2-bit hysteresis counter — the paper's
	// recommended automaton (ties the 3-bit voting counters with fewer
	// bits).
	LEH2 = AutomatonKind{name: "LEH-2bit", class: classLEH, max: 3, Bits: 4}

	// VC2MRU is four 2-bit voting counters with MRU tie-breaking.
	VC2MRU = AutomatonKind{name: "2bit-VC-MRU", class: classVC, max: 3, tie: TieMRU, Bits: 10}

	// VC2Random is four 2-bit voting counters with random tie-breaking.
	VC2Random = AutomatonKind{name: "2bit-VC-RANDOM", class: classVC, max: 3, tie: TieRandom, Bits: 8}

	// VC3MRU is four 3-bit voting counters with MRU tie-breaking.
	VC3MRU = AutomatonKind{name: "3bit-VC-MRU", class: classVC, max: 7, tie: TieMRU, Bits: 14}

	// VC3Random is four 3-bit voting counters with random tie-breaking.
	VC3Random = AutomatonKind{name: "3bit-VC-RANDOM", class: classVC, max: 7, tie: TieRandom, Bits: 12}
)

// AllAutomata lists the seven automata of Figure 6 in the paper's legend
// order.
var AllAutomata = []AutomatonKind{VC2MRU, VC2Random, LEH1, VC3MRU, VC3Random, LEH2, LE}

const (
	// autTouched marks an allocated automaton; a fresh one is exactly
	// autTouched (exit 0, counters 0, MRU exit 0).
	autTouched uint16 = 1 << 15

	lehCtrShift        = 8
	vcMRUShift         = 12
	vcCtrBits          = 3
	vcCtrMask   uint16 = 1<<vcCtrBits - 1
)

// predict returns the exit predicted by packed state s. Only a voting
// counter with TieRandom that sees a tie draws from r (one draw per tied
// predict), so the tie-break stream advances exactly as the paper's
// per-automaton model would.
func (k *AutomatonKind) predict(s uint16, r *rng) int {
	if k.class != classVC {
		return int(s & 3)
	}
	return k.predictVC(s, r)
}

func (k *AutomatonKind) predictVC(s uint16, r *rng) int {
	ties := vcTies[s&vcCtrsMask]
	if ties&(ties-1) == 0 {
		return bits.TrailingZeros8(ties)
	}
	if k.tie == TieMRU {
		if mru := s >> vcMRUShift & 3; ties>>mru&1 != 0 {
			return int(mru)
		}
		return bits.TrailingZeros8(ties)
	}
	if r != nil {
		// The j-th lowest tied exit, j drawn uniformly among the ties.
		for j := r.intn(bits.OnesCount8(ties)); j > 0; j-- {
			ties &= ties - 1
		}
	}
	return bits.TrailingZeros8(ties)
}

// vcCtrsMask covers the four 3-bit voting counters of a packed state.
const vcCtrsMask = 1<<(vcCtrBits*tfg.MaxExits) - 1

// vcTies maps the counter field of a voting-counter state to the set of
// exits tied at the highest count (bit i for exit i).
var vcTies = func() (t [vcCtrsMask + 1]uint8) {
	for s := range t {
		best := 0
		for i := 0; i < tfg.MaxExits; i++ {
			best = max(best, s>>(vcCtrBits*i)&int(vcCtrMask))
		}
		for i := 0; i < tfg.MaxExits; i++ {
			if s>>(vcCtrBits*i)&int(vcCtrMask) == best {
				t[s] |= 1 << i
			}
		}
	}
	return t
}()

// update returns s trained with the actual exit. LE remembers it; LEH
// replaces its stored exit only when the hysteresis counter has decayed
// to zero and the prediction is wrong again; voting counters increment
// the actual exit's counter, decrement all others and record the MRU
// exit (§5.1).
func (k *AutomatonKind) update(s uint16, exit int) uint16 {
	switch k.class {
	case classLE:
		return s&^3 | uint16(exit)
	case classLEH:
		return k.updateLEH(s, exit)
	}
	return k.updateVC(s, exit)
}

func (k *AutomatonKind) updateLEH(s uint16, exit int) uint16 {
	ctr := s >> lehCtrShift & 3
	switch {
	case int(s&3) == exit:
		if ctr < k.max {
			ctr++
		}
	case ctr == 0:
		return s&^3 | uint16(exit)
	default:
		ctr--
	}
	return s&^(3<<lehCtrShift) | ctr<<lehCtrShift
}

func (k *AutomatonKind) updateVC(s uint16, exit int) uint16 {
	// Decrement every non-zero counter at once (a counter's low bit in
	// nz is set when any of its three bits is), then put the actual
	// exit's counter back, incremented up to max.
	c := s & vcCtrsMask
	nz := (c | c>>1 | c>>2) & 0x249
	sh := uint(vcCtrBits * exit)
	e := c >> sh & vcCtrMask
	if e < k.max {
		e++
	}
	return autTouched | uint16(exit)<<vcMRUShift | (c-nz)&^(vcCtrMask<<sh) | e<<sh
}

// flipBit returns s with one training-state bit inverted — an upset in
// the PHT RAM. The victim is one of the stored exit's two bits or a
// counter bit, chosen by rnd; counters stay within [0, max] because max
// is all-ones for every kind. The touched bit is never hit.
func (k *AutomatonKind) flipBit(s uint16, rnd func(int) int) uint16 {
	switch k.class {
	case classLE:
		return s ^ 1<<rnd(2)
	case classLEH:
		ctrBits := 1
		if k.max == 3 {
			ctrBits = 2
		}
		b := rnd(2 + ctrBits)
		if b < 2 {
			return s ^ 1<<b
		}
		return s ^ 1<<(lehCtrShift+b-2)
	}
	ctrBits := 2
	if k.max == 7 {
		ctrBits = 3
	}
	i := rnd(tfg.MaxExits)
	return s ^ 1<<(vcCtrBits*i+rnd(ctrBits))
}
