package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
)

// DefaultRASDepth is the default return address stack depth. The paper
// cites a "reasonably deep RAS [as] nearly perfect in predicting return
// addresses"; 32 entries is deep enough for all our workloads' call
// nesting and typical of the era's aggressive designs.
const DefaultRASDepth = 32

// RAS is a circular return address stack (§4.2). Pushing past the
// capacity silently overwrites the oldest entry; popping an empty stack
// yields an invalid (zero) address — both behaviours match hardware.
type RAS struct {
	ring  []isa.Addr
	top   int
	size  int
	depth int

	// stamps[i] is the value of the monotonic write counter when ring[i]
	// was last written. A mark records the counter; Repair compares the
	// stamps of the restored live region against it to detect entries a
	// deep wrong-path push clobbered past the mark's single-entry reach.
	stamps []uint64
	writes uint64

	pushes    int
	pops      int
	underflow int
	overflow  int
	damaged   int
}

// NewRAS returns a return address stack with the given capacity
// (DefaultRASDepth if depth <= 0).
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		depth = DefaultRASDepth
	}
	return &RAS{ring: make([]isa.Addr, depth), stamps: make([]uint64, depth), depth: depth}
}

// Push records a return address (on a CALL or INDIRECT_CALL exit).
func (s *RAS) Push(addr isa.Addr) {
	s.top++
	if s.top == s.depth {
		s.top = 0
	}
	s.ring[s.top] = addr
	s.writes++
	s.stamps[s.top] = s.writes
	overflowed := false
	if s.size < s.depth {
		s.size++
	} else {
		s.overflow++
		overflowed = true
	}
	s.pushes++
	if obs.On() {
		obsRASPushes.Inc()
		if overflowed {
			obsRASOverflows.Inc()
		}
	}
}

// Top returns the predicted return address without popping: the value a
// RETURN exit is predicted to target. ok is false when the stack is
// empty.
func (s *RAS) Top() (addr isa.Addr, ok bool) {
	if s.size == 0 {
		return 0, false
	}
	return s.ring[s.top], true
}

// Pop consumes the top entry (on an actual RETURN exit).
func (s *RAS) Pop() (addr isa.Addr, ok bool) {
	s.pops++
	if obs.On() {
		obsRASPops.Inc()
	}
	if s.size == 0 {
		s.underflow++
		if obs.On() {
			obsRASUnderflows.Inc()
		}
		return 0, false
	}
	addr = s.ring[s.top]
	s.top--
	if s.top < 0 {
		s.top = s.depth - 1
	}
	s.size--
	return addr, true
}

// RASMark is a repair point captured by Mark: the sequencer's snapshot of
// the top-of-stack pointer, the live-entry count, the top entry's value,
// and the write counter at mark time. It is the state hardware saves
// when dispatch speculates past a call or return so a misprediction can
// restore the stack (§5.3).
type RASMark struct {
	top   int
	size  int
	val   isa.Addr
	stamp uint64
}

// Mark captures a repair point before speculative pushes and pops.
func (s *RAS) Mark() RASMark {
	return RASMark{top: s.top, size: s.size, val: s.ring[s.top], stamp: s.writes}
}

// Repair restores the stack to a previously captured mark: the top
// pointer, depth, and top entry value are rolled back, so the next Top
// predicts exactly what it would have before speculation. Entries below
// the restored top that were overwritten by deep wrong-path pushes are
// not recovered — the same limitation real checkpoint-repair hardware
// has. Repair reports that case: damaged is true when any live entry
// below the restored top carries a write stamp newer than the mark, i.e.
// the repaired stack is NOT guaranteed byte-identical to its state at
// Mark time. damaged == false guarantees an exact restore (pinned by
// FuzzRAS); single-frame speculation (one push or pop since the mark, as
// in lag-0 speculative update) can only be damaged by a genuine
// overflow wrap of a full stack.
func (s *RAS) Repair(m RASMark) (damaged bool) {
	s.top, s.size = m.top, m.size
	s.ring[s.top] = m.val
	s.stamps[s.top] = m.stamp
	for i := 1; i < m.size; i++ {
		slot := m.top - i
		if slot < 0 {
			slot += s.depth
		}
		if s.stamps[slot] > m.stamp {
			damaged = true
			break
		}
	}
	if damaged {
		s.damaged++
	}
	return damaged
}

// Damaged returns how many repairs were inexact (see Repair).
func (s *RAS) Damaged() int { return s.damaged }

// Depth returns the stack capacity.
func (s *RAS) Depth() int { return s.depth }

// Size returns the current number of live entries.
func (s *RAS) Size() int { return s.size }

// Overflows returns how many pushes overwrote a live entry.
func (s *RAS) Overflows() int { return s.overflow }

// Underflows returns how many pops found the stack empty.
func (s *RAS) Underflows() int { return s.underflow }

// Reset clears the stack and its statistics, reusing its rings.
func (s *RAS) Reset() {
	clear(s.ring)
	clear(s.stamps)
	*s = RAS{ring: s.ring, stamps: s.stamps, depth: s.depth}
}
