package core

import (
	"fmt"
	"slices"
	"testing"

	"multiscalar/internal/tfg"
)

// The reference automata: a literal, one-struct-per-kind transcription
// of the paper's §5.1 prediction automata. The predictors run the packed
// transition functions of AutomatonKind; TestPackedAutomataMatchReference
// checks them against these exhaustively.

type refAutomaton interface {
	Predict() int
	Update(actual int)
	flipBit(rnd func(int) int)
	// packed encodes the state in AutomatonKind's packed layout.
	packed() uint16
	// key identifies the reference state; it is packed() except where
	// two reference states share a packed encoding.
	key() uint32
	clone() refAutomaton
}

func newRef(k AutomatonKind, r *rng) refAutomaton {
	switch k.class {
	case classLE:
		le := refLastExit(0)
		return &le
	case classLEH:
		return &refLEH{max: int8(k.max)}
	}
	return &refVC{max: int8(k.max), tie: k.tie, mru: -1, rng: r}
}

// refLastExit predicts whatever exit was taken last time (LE).
type refLastExit int8

func (a *refLastExit) Predict() int      { return int(*a) }
func (a *refLastExit) Update(actual int) { *a = refLastExit(actual) }

// flipBit flips one of the two stored exit-number bits.
func (a *refLastExit) flipBit(rnd func(int) int) {
	*a = refLastExit(int8(*a) ^ int8(1<<rnd(2)))
}

func (a *refLastExit) packed() uint16      { return autTouched | uint16(*a) }
func (a *refLastExit) key() uint32         { return uint32(a.packed()) }
func (a *refLastExit) clone() refAutomaton { c := *a; return &c }

// refLEH is last-exit with hysteresis (LEH): the stored exit is replaced
// only when the saturating confidence counter has decayed to zero and
// the prediction is wrong again.
type refLEH struct {
	exit int8
	ctr  int8
	max  int8 // counter saturation value: 1 for LEH-1bit, 3 for LEH-2bit
}

func (a *refLEH) Predict() int { return int(a.exit) }

func (a *refLEH) Update(actual int) {
	if int(a.exit) == actual {
		if a.ctr < a.max {
			a.ctr++
		}
		return
	}
	if a.ctr == 0 {
		a.exit = int8(actual)
		return
	}
	a.ctr--
}

// flipBit flips a bit of the stored exit (2 bits) or of the hysteresis
// counter.
func (a *refLEH) flipBit(rnd func(int) int) {
	ctrBits := 1
	if a.max == 3 {
		ctrBits = 2
	}
	b := rnd(2 + ctrBits)
	if b < 2 {
		a.exit ^= 1 << b
		return
	}
	a.ctr ^= 1 << (b - 2)
}

func (a *refLEH) packed() uint16 {
	return autTouched | uint16(a.exit) | uint16(a.ctr)<<lehCtrShift
}
func (a *refLEH) key() uint32         { return uint32(a.packed()) }
func (a *refLEH) clone() refAutomaton { c := *a; return &c }

// refVC keeps one saturating counter per exit; the exit with the
// strictly highest counter is predicted, with ties broken by policy. On
// update the actual exit's counter is incremented and all others are
// decremented (§5.1).
type refVC struct {
	ctr [tfg.MaxExits]int8
	max int8
	tie TiePolicy
	mru int8 // most recently used exit; -1 before first update
	rng *rng
}

func (a *refVC) Predict() int {
	best := a.ctr[0]
	for _, c := range a.ctr[1:] {
		if c > best {
			best = c
		}
	}
	var ties [tfg.MaxExits]int
	n := 0
	for i, c := range a.ctr {
		if c == best {
			ties[n] = i
			n++
		}
	}
	if n == 1 {
		return ties[0]
	}
	switch a.tie {
	case TieMRU:
		if a.mru >= 0 {
			for _, t := range ties[:n] {
				if int(a.mru) == t {
					return t
				}
			}
		}
		return ties[0]
	default: // TieRandom
		if a.rng != nil {
			return ties[a.rng.intn(n)]
		}
		return ties[0]
	}
}

func (a *refVC) Update(actual int) {
	for i := range a.ctr {
		if i == actual {
			if a.ctr[i] < a.max {
				a.ctr[i]++
			}
		} else if a.ctr[i] > 0 {
			a.ctr[i]--
		}
	}
	a.mru = int8(actual)
}

// flipBit flips a bit of one voting counter.
func (a *refVC) flipBit(rnd func(int) int) {
	ctrBits := 2
	if a.max == 7 {
		ctrBits = 3
	}
	a.ctr[rnd(len(a.ctr))] ^= 1 << rnd(ctrBits)
}

func (a *refVC) packed() uint16 {
	s := autTouched
	for i, c := range a.ctr {
		s |= uint16(c) << (vcCtrBits * i)
	}
	if a.mru >= 0 { // no MRU exit yet packs as exit 0 (see AutomatonKind)
		s |= uint16(a.mru) << vcMRUShift
	}
	return s
}

// key tells "no MRU exit yet" apart from MRU exit 0, which pack alike.
func (a *refVC) key() uint32 {
	k := uint32(a.packed())
	if a.mru < 0 {
		k |= 1 << 16
	}
	return k
}
func (a *refVC) clone() refAutomaton { c := *a; return &c }

// scriptRnd is a fault-layer die that replays a fixed script (each value
// taken modulo the requested range) and records every range requested.
type scriptRnd struct {
	script []int
	asked  []int
}

func (s *scriptRnd) rnd(n int) int {
	i := len(s.asked)
	s.asked = append(s.asked, n)
	return s.script[i%len(s.script)] % n
}

// TestPackedAutomataMatchReference walks every reference state reachable
// from a fresh automaton by updates and bit flips, for all seven kinds,
// and checks that the packed transition functions agree with the
// reference automata on every predict (result and tie-break RNG draws),
// every update with exits 0–3, and every bit flip (result and die
// rolls).
func TestPackedAutomataMatchReference(t *testing.T) {
	for _, kind := range AllAutomata {
		t.Run(kind.Name(), func(t *testing.T) {
			k := kind
			start := newRef(k, nil)
			seen := map[uint32]bool{start.key(): true}
			queue := []refAutomaton{start}
			visit := func(from uint16, what func() string, next refAutomaton, got uint16) {
				t.Helper()
				if want := next.packed(); got != want {
					t.Fatalf("state %#04x %s: packed %#04x, reference %#04x", from, what(), got, want)
				}
				if !seen[next.key()] {
					seen[next.key()] = true
					queue = append(queue, next)
				}
			}
			for len(queue) > 0 {
				ref := queue[0]
				queue = queue[1:]
				s := ref.packed()

				for seed := uint32(1); seed <= 8; seed++ {
					rr, pr := newRNG(seed), newRNG(seed)
					c := ref.clone()
					if vc, ok := c.(*refVC); ok {
						vc.rng = &rr
					}
					want := c.Predict()
					if got := k.predict(s, &pr); got != want || pr != rr {
						t.Fatalf("state %#04x seed %d: predict %d (rng %#x), reference %d (rng %#x)",
							s, seed, got, pr.state, want, rr.state)
					}
				}

				for e := 0; e < tfg.MaxExits; e++ {
					next := ref.clone()
					next.Update(e)
					visit(s, func() string { return fmt.Sprintf("update(%d)", e) }, next, k.update(s, e))
				}

				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						rs := &scriptRnd{script: []int{a, b}}
						ps := &scriptRnd{script: []int{a, b}}
						next := ref.clone()
						next.flipBit(rs.rnd)
						got := k.flipBit(s, ps.rnd)
						if !slices.Equal(rs.asked, ps.asked) {
							t.Fatalf("state %#04x flip %v: die rolls %v, reference %v", s, rs.script, ps.asked, rs.asked)
						}
						visit(s, func() string { return fmt.Sprintf("flip%v", rs.script) }, next, got)
					}
				}
			}
			t.Logf("%d reachable states", len(seen))
		})
	}
}
