// Package fault is a deterministic, seeded fault-injection layer over the
// prediction structures of internal/core.
//
// The paper's central claim is that inter-task control flow speculation
// is purely a performance mechanism: wrong exits, stale automata, aliased
// tables and misrepaired return address stacks cost accuracy, never
// correctness, because the sequencer always recovers to the actual
// control flow (§3.1, §5.3). This package makes that claim testable. A
// Spec selects per-structure fault rates; an Injector wraps any
// core.TaskPredictor and, with seeded determinism, corrupts predictor
// state in paper-meaningful ways:
//
//   - ctr:  single-bit flips in exit-automata state (voting / LE / LEH
//     counters and stored exits) via the PHT corruption hooks;
//   - hist: bit flips in path/exit history registers — the state that is
//     hardest to keep coherent under deep speculation;
//   - ras:  return address stack pop-drops, forced overflow wraparound,
//     and return-address bit flips;
//   - ttb:  TTB/CTTB entry clobbering (target bit flips, hysteresis
//     decay, invalidation);
//   - upd:  lost delayed updates — training outcomes that never make it
//     back from the execution ring to the sequencer.
//
// The evaluation engine runs faulted task replays (engine.Run with a
// Fault spec) and holds each to the recovery invariants: no panic, every
// oracle step scored, the shared trace columns unchanged (Checksum).
// Its tests add the degradation invariant: accuracy loss only.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies one class of injected fault.
type Kind uint8

const (
	// KindCounter flips bits in exit-automata state (PHT entries).
	KindCounter Kind = iota
	// KindHistory flips bits in path/exit history registers.
	KindHistory
	// KindRAS injures the return address stack (pop-drop, wraparound,
	// address bit flip).
	KindRAS
	// KindTTB clobbers TTB/CTTB entries.
	KindTTB
	// KindUpdate drops predictor training updates (lost delayed updates).
	KindUpdate

	// NumKinds is the number of fault classes.
	NumKinds = int(KindUpdate) + 1
)

var kindNames = [NumKinds]string{"ctr", "hist", "ras", "ttb", "upd"}

// String returns the kind's spec-string token ("ctr", "hist", ...).
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every fault kind in spec order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Spec is a parsed fault-injection configuration: one injection
// probability per fault kind, applied independently per dynamic task
// step, plus the seed of the injector's deterministic RNG.
type Spec struct {
	// Rate holds the per-step injection probability of each kind, in
	// [0, 1].
	Rate [NumKinds]float64
	// Seed seeds the injection RNG (0 selects a fixed default, keeping
	// runs reproducible either way).
	Seed uint32
}

// Enabled reports whether any fault kind has a non-zero rate.
func (s Spec) Enabled() bool {
	for _, r := range s.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// Validate checks that every rate is a probability.
func (s Spec) Validate() error {
	for k, r := range s.Rate {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", Kind(k), r)
		}
		if r != r { // NaN
			return fmt.Errorf("fault: %s rate is NaN", Kind(k))
		}
	}
	return nil
}

// String renders the spec in canonical parseable form: the non-zero
// rates in kind order, then the seed when non-zero ("ctr=0.001,ras=0.01"
// or "off" when no fault is enabled).
func (s Spec) String() string {
	var parts []string
	for k, r := range s.Rate {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", Kind(k), r))
		}
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a compact fault spec string — the msim/mbench/mlint
// flag syntax, shared the way engine.Parse's predictor grammar is. The
// grammar is comma-separated key=value pairs:
//
//	all=RATE    set every fault kind to RATE
//	ctr=RATE    exit-automata counter bit flips
//	hist=RATE   path/exit history register corruption
//	ras=RATE    RAS pop-drops, wraparound, address flips
//	ttb=RATE    TTB/CTTB entry clobbering
//	upd=RATE    lost (dropped) training updates
//	seed=N      injection RNG seed (unsigned 32-bit)
//
// Rates accept any strconv.ParseFloat syntax ("0.01", "1e-3") and must be
// probabilities. Later pairs override earlier ones, so "all=1e-3,ras=0"
// enables everything except RAS faults. "off", "none" and the empty
// string parse to the zero Spec (no injection).
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "off" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		key, val, ok := strings.Cut(part, "=")
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			spec.Seed = uint32(n)
			continue
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad rate %q for %q: %v", val, key, err)
		}
		if key == "all" {
			for k := range spec.Rate {
				spec.Rate[k] = rate
			}
			continue
		}
		idx := -1
		for k, name := range kindNames {
			if key == name {
				idx = k
				break
			}
		}
		if idx < 0 {
			names := append([]string{"all", "seed"}, kindNames[:]...)
			sort.Strings(names)
			return Spec{}, fmt.Errorf("fault: unknown fault kind %q (have %v)", key, names)
		}
		spec.Rate[idx] = rate
	}
	return spec, spec.Validate()
}

// MustSpec is ParseSpec for statically-known specs; it panics iff the
// spec fails to parse (a programming error, mirroring core.MustDOLC's
// panic contract).
func MustSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}
