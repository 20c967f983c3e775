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

// pathField masks one pathKeyBits-bit field of a PathKey.
const pathField = 1<<pathKeyBits - 1

// MakePathKey builds the exact key for the ideal PATH scheme: the current
// task address in field 0 and the i-th most recent history entry in
// field i, for i up to depth (field i is bits 16·(i mod 4) of word i/4).
// Every bit carries an address bit, so the depth is not part of the key:
// a predictor's depth is fixed, and at depth 11 the history fills all
// twelve fields.
func MakePathKey(h *PathHistory, current isa.Addr, depth int) PathKey {
	var k PathKey
	k[0] = uint64(current) & pathField
	for i := 1; i <= depth; i++ {
		k[i/4] |= (uint64(h.At(i)) & pathField) << (pathKeyBits * (i % 4))
	}
	return k
}

// pathReg is the ideal path-keyed tables' history register: the depth
// most recent task addresses held in fields 1..depth of a key in
// MakePathKey's layout, so a step's key is one OR of the current task
// into field 0 and a push is a three-word shift — the way dolcPath keeps
// the older fields of a DOLC index. Every key equals MakePathKey over
// the same history (pinned by test).
type pathReg struct {
	k     ctxKey // fields 1..depth; field 0 always zero
	keep  ctxKey // mask of fields 1..depth
	depth int
}

func newPathReg(depth int) pathReg {
	var keep PathKey
	for i := 1; i <= depth; i++ {
		keep[i/4] |= pathField << (pathKeyBits * (i % 4))
	}
	return pathReg{keep: ctxKey{keep[0], keep[1], keep[2]}, depth: depth}
}

// key returns the exact context key of the current task.
func (r *pathReg) key(current isa.Addr) ctxKey {
	return ctxKey{r.k.w0 | uint64(current)&pathField, r.k.w1, r.k.w2}
}

// carry is the shift that moves a word's top field into the next word.
const carry = 64 - pathKeyBits

// push shifts a completed task into field 1, evicting field depth.
func (r *pathReg) push(addr isa.Addr) {
	k := r.key(addr)
	r.k = ctxKey{
		k.w0 << pathKeyBits & r.keep.w0,
		(k.w1<<pathKeyBits | k.w0>>carry) & r.keep.w1,
		(k.w2<<pathKeyBits | k.w1>>carry) & r.keep.w2,
	}
}

// oldest returns field depth: the address bits the next push evicts.
func (r *pathReg) oldest() uint32 {
	if r.depth == 0 {
		return 0
	}
	w := [3]uint64{r.k.w0, r.k.w1, r.k.w2}[r.depth/4]
	return uint32(w >> (pathKeyBits * (r.depth % 4)) & pathField)
}

// unpush undoes a push that evicted oldest.
func (r *pathReg) unpush(oldest uint32) {
	if r.depth == 0 {
		return
	}
	k := PathKey{
		(r.k.w0>>pathKeyBits | r.k.w1<<carry) &^ pathField,
		r.k.w1>>pathKeyBits | r.k.w2<<carry,
		r.k.w2 >> pathKeyBits,
	}
	k[r.depth/4] |= uint64(oldest) << (pathKeyBits * (r.depth % 4))
	r.k = ctxKey{k[0], k[1], k[2]}
}

// reset clears the register.
func (r *pathReg) reset() { r.k = ctxKey{} }

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
