package core

// Fault-injection hooks: controlled, paper-meaningful corruption of
// predictor state. The Multiscalar sequencer's prediction structures are
// performance hints, never architectural state — a bit flip in a PHT
// automaton, a clobbered CTTB entry, or a misrepaired RAS must only ever
// cost accuracy, not correctness. These hooks let internal/fault flip
// exactly those bits so the engine's faulted runs can prove that
// property end to end.
//
// Every hook takes the fault layer's die roll as a rnd func(n int) int
// (uniform in [0, n)) so injections stay deterministic under a seed, and
// returns whether any state was actually corrupted (a predictor that has
// touched no state yet has nothing to corrupt).

// corrupt flips a random training-state bit of a random allocated PHT
// entry, scanning forward from a random start so sparse tables still
// find a victim in one call. It reports false when the table holds no
// touched entry yet.
func (t *pht) corrupt(rnd func(int) int) bool {
	n := len(t.states)
	if n == 0 {
		return false
	}
	start := rnd(n)
	for i := 0; i < n; i++ {
		j := (start + i) % n
		if s := t.states[j]; s != 0 {
			t.states[j] = t.kind.flipBit(s, rnd)
			return true
		}
	}
	return false
}

// FlipBit corrupts the path history register: one of the pathKeyBits
// address bits of one history entry is inverted, modelling an upset in
// the sequencer's shift register under deep speculation.
func (h *PathHistory) FlipBit(rnd func(int) int) {
	h.ring[rnd(len(h.ring))] ^= 1 << rnd(pathKeyBits)
}

// CorruptCounter implements the fault layer's counter-corruption hook:
// a single bit flip in one allocated PHT automaton.
func (p *PathExit) CorruptCounter(rnd func(int) int) bool {
	return p.pht.corrupt(rnd)
}

// CorruptHistory implements the fault layer's history-corruption hook:
// a single bit flip in the path history register.
func (p *PathExit) CorruptHistory(rnd func(int) int) bool {
	p.path.hist.FlipBit(rnd)
	p.path.resync()
	return true
}

// CorruptCounter flips a bit in one allocated PHT automaton.
func (p *GlobalExit) CorruptCounter(rnd func(int) int) bool {
	return p.pht.corrupt(rnd)
}

// CorruptHistory flips one bit of the global exit history register (a
// no-op at depth 0, where no history bits exist).
func (p *GlobalExit) CorruptHistory(rnd func(int) int) bool {
	if p.depth == 0 {
		return false
	}
	p.hist ^= 1 << rnd(2*p.depth)
	return true
}

// CorruptCounter flips a bit in one allocated PHT automaton.
func (p *PerExit) CorruptCounter(rnd func(int) int) bool {
	return p.pht.corrupt(rnd)
}

// CorruptHistory flips one bit of a random per-task history register.
func (p *PerExit) CorruptHistory(rnd func(int) int) bool {
	if p.depth == 0 {
		return false
	}
	p.hrt[rnd(len(p.hrt))] ^= 1 << rnd(2*p.depth)
	return true
}

// CorruptEntry clobbers a CTTB entry, modelling an upset in the target
// buffer RAM: the victim is the first valid entry at or after a random
// index, and the upset either flips a target address bit, decays the
// hysteresis counter to zero, or invalidates the entry outright.
func (b *CTTB) CorruptEntry(rnd func(int) int) bool {
	n := len(b.entries)
	if n == 0 {
		return false
	}
	start := rnd(n)
	if b.touched == 0 {
		// No valid entry to find; the start draw above still happens,
		// so the injector's draw sequence does not depend on this exit.
		return false
	}
	for i := 0; i < n; i++ {
		e := &b.entries[(start+i)%n]
		if !e.valid {
			continue
		}
		switch rnd(3) {
		case 0:
			e.target ^= 1 << rnd(pathKeyBits)
		case 1:
			e.ctr = 0
		default:
			*e = ttbEntry{}
			b.touched--
		}
		return true
	}
	return false
}

// CorruptHistory flips one bit of the buffer's path history register.
func (b *CTTB) CorruptHistory(rnd func(int) int) bool {
	b.path.hist.FlipBit(rnd)
	b.path.resync()
	return true
}

// Corrupt injures the return address stack in one of the ways deep
// speculation can: a pop-drop (the top entry is consumed without a
// matching return), a forced overflow wraparound (the top pointer slips
// one slot, as if an overwritten frame were exposed), or an address bit
// flip in the top entry. Reports false when the stack is empty.
func (s *RAS) Corrupt(rnd func(int) int) bool {
	if s.size == 0 {
		return false
	}
	switch rnd(3) {
	case 0: // pop-drop: silently lose the top entry
		s.top--
		if s.top < 0 {
			s.top = s.depth - 1
		}
		s.size--
	case 1: // wraparound: the top pointer slips to the overwritten slot
		s.top++
		if s.top == s.depth {
			s.top = 0
		}
	default: // bit flip in the predicted return address
		s.ring[s.top] ^= 1 << rnd(pathKeyBits)
	}
	return true
}
