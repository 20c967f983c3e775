package core

// rng is a small deterministic xorshift32 generator used for the random
// tie-breaking policy of voting-counter automata (§5.1). A hardware
// implementation would use an LFSR; determinism keeps experiments
// reproducible.
type rng struct{ state uint32 }

// newRNG returns a generator seeded with seed (0 is replaced by a fixed
// non-zero constant, since xorshift has an all-zero fixed point).
func newRNG(seed uint32) rng {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return rng{state: seed}
}

// next returns the next 32-bit pseudo-random value.
func (r *rng) next() uint32 {
	x := r.state
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	r.state = x
	return x
}

// intn returns a pseudo-random value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint32(n))
}
