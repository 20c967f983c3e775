package core

import "multiscalar/internal/isa"

// MaxHistoryDepth bounds the path/exit history depth supported by the
// predictors in this package. The paper studies depths 0–9.
const MaxHistoryDepth = 11

// PathHistory is the path history register: a shift register of the start
// addresses of the most recently sequenced tasks (§4.1.2 "path-based",
// §5.2 PATH). Position 1 is the most recent predecessor (Current_Task - 1
// in the paper's Figure 9 notation), position 2 is Current_Task - 2, and
// so on.
type PathHistory struct {
	ring [MaxHistoryDepth]isa.Addr
	head int
}

// Push shifts the start address of a newly completed task into the
// history.
func (h *PathHistory) Push(addr isa.Addr) {
	h.head++
	if h.head == len(h.ring) {
		h.head = 0
	}
	h.ring[h.head] = addr
}

// At returns the i-th most recent task address (i=1 is the immediate
// predecessor). Addresses older than anything pushed read as zero, which
// models a cleared history register at startup.
func (h *PathHistory) At(i int) isa.Addr {
	idx := h.head - i + 1
	if idx < 0 { // i <= MaxHistoryDepth, so one wrap suffices
		idx += len(h.ring)
	}
	return h.ring[idx]
}

// Reset clears the history register.
func (h *PathHistory) Reset() { *h = PathHistory{} }

// PathKey is an exact, collision-free encoding of (current task, D
// preceding task addresses) used by the ideal (alias-free) predictors.
// Sixteen address bits are kept per task, which is exact for programs up
// to 65536 instructions — enforced by the workloads and checked by the
// evaluation driver.
type PathKey [3]uint64

// pathKeyBits is how many address bits each path element contributes to a
// PathKey. 12 elements of 16 bits fill the 192-bit key exactly.
const pathKeyBits = 16

// MakePathKey builds the exact key for the ideal PATH scheme: the current
// task address plus the depth most recent history entries.
func MakePathKey(h *PathHistory, current isa.Addr, depth int) PathKey {
	var k PathKey
	k[0] = uint64(current) & (1<<pathKeyBits - 1)
	slot, shift := 0, pathKeyBits
	for i := 1; i <= depth; i++ {
		if shift == 64 {
			slot++
			shift = 0
		}
		k[slot] |= (uint64(h.At(i)) & (1<<pathKeyBits - 1)) << shift
		shift += pathKeyBits
	}
	// Mix the depth itself into the top bits so keys of different depths
	// never collide when predictors are (incorrectly) shared; cheap
	// defence, costs nothing.
	k[2] |= uint64(depth) << 56
	return k
}

// ExitHistory is a global or per-task exit-number shift register: two bits
// per task step encoding which of the four exits was taken (§5.2,
// exit-based history generation).
type ExitHistory uint64

// Push shifts a 2-bit exit number into the history, keeping depth entries.
func (h ExitHistory) Push(exit, depth int) ExitHistory {
	if depth == 0 {
		return 0
	}
	mask := ExitHistory(1)<<(2*uint(depth)) - 1
	return ((h << 2) | ExitHistory(exit&3)) & mask
}
