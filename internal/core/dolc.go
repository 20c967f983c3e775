package core

import (
	"fmt"

	"multiscalar/internal/isa"
)

// DOLC specifies a realizable path-based index function (§6.2, Figure 9).
//
// An intermediate index is built by concatenating low-order task address
// bits: C bits of the current task, L bits of the last task
// (Current_Task - 1), and O bits from each of the D-1 older tasks
// (Current_Task - 2 … Current_Task - D). The intermediate index is then
// folded by splitting it into F equal sub-fields that are XORed together,
// yielding the final table index of (D-1)·O + L + C) / F bits.
//
// The paper writes configurations as D-O-L-C (F); String reproduces that
// notation.
type DOLC struct {
	Depth   int // D: number of preceding tasks in the path
	Older   int // O: bits per older task (Current-2 … Current-D)
	Last    int // L: bits from the last task (Current-1)
	Current int // C: bits from the current task
	Folds   int // F: number of XOR-folded sub-fields
}

// String renders the configuration in the paper's D-O-L-C (F) notation.
func (d DOLC) String() string {
	return fmt.Sprintf("%d-%d-%d-%d(%d)", d.Depth, d.Older, d.Last, d.Current, d.Folds)
}

// IntermediateBits returns the length of the intermediate index:
// (D-1)·O + L + C (zero-clamped for D ∈ {0,1}, where no older tasks
// contribute).
func (d DOLC) IntermediateBits() int {
	older := d.Depth - 1
	if older < 0 {
		older = 0
	}
	return older*d.Older + d.Last + d.Current
}

// IndexBits returns the width of the final, folded index.
func (d DOLC) IndexBits() int {
	if d.Folds <= 1 {
		return d.IntermediateBits()
	}
	return d.IntermediateBits() / d.Folds
}

// TableSize returns the number of entries of a table indexed by this
// configuration (2^IndexBits).
func (d DOLC) TableSize() int { return 1 << uint(d.IndexBits()) }

// Validate checks that the configuration is well-formed: depth within
// MaxHistoryDepth, O, L and C within the 0..32 bits of a task address
// (so (D-1)·O + L + C cannot overflow), no bits from a task the depth
// does not track (O at depth 0 or 1, L at depth 0: the index would
// ignore them, so one predictor would have several spellings), a
// positive index width, and an intermediate length that divides evenly
// into F sub-fields (the paper's "length of the intermediate index …
// must be a multiple of F").
func (d DOLC) Validate() error {
	if d.Depth < 0 || d.Depth > MaxHistoryDepth {
		return fmt.Errorf("core: DOLC %v: depth out of range 0..%d", d, MaxHistoryDepth)
	}
	for _, f := range []int{d.Older, d.Last, d.Current} {
		if f < 0 || f > addrBits {
			return fmt.Errorf("core: DOLC %v: O, L and C must be in 0..%d", d, addrBits)
		}
	}
	if d.Older > 0 && d.Depth < 2 {
		return fmt.Errorf("core: DOLC %v: O=%d but depth %d tracks no older task", d, d.Older, d.Depth)
	}
	if d.Last > 0 && d.Depth < 1 {
		return fmt.Errorf("core: DOLC %v: L=%d but depth 0 tracks no last task", d, d.Last)
	}
	if d.Folds < 1 {
		return fmt.Errorf("core: DOLC %v: folds must be >= 1", d)
	}
	ib := d.IntermediateBits()
	if ib == 0 {
		return fmt.Errorf("core: DOLC %v: empty intermediate index", d)
	}
	if ib%d.Folds != 0 {
		return fmt.Errorf("core: DOLC %v: intermediate length %d not a multiple of F=%d", d, ib, d.Folds)
	}
	if d.IndexBits() > 30 {
		return fmt.Errorf("core: DOLC %v: index of %d bits is unreasonably large", d, d.IndexBits())
	}
	return nil
}

// intermediate builds the unfolded intermediate index from the history
// register and current task address. Oldest bits end up highest, matching
// Figure 9's layout (current task at the low end).
func (d DOLC) intermediate(h *PathHistory, current isa.Addr) uint64 {
	v := uint64(0)
	for i := d.Depth; i >= 2; i-- {
		v = v<<uint(d.Older) | uint64(h.At(i))&(1<<uint(d.Older)-1)
	}
	if d.Depth >= 1 {
		v = v<<uint(d.Last) | uint64(h.At(1))&(1<<uint(d.Last)-1)
	}
	v = v<<uint(d.Current) | uint64(current)&(1<<uint(d.Current)-1)
	return v
}

// Index computes the final table index for the given history and current
// task: the intermediate index split into F fields, XOR-folded together.
func (d DOLC) Index(h *PathHistory, current isa.Addr) uint32 {
	v := d.intermediate(h, current)
	bits := d.IndexBits()
	if d.Folds <= 1 {
		return uint32(v & (1<<uint(bits) - 1))
	}
	mask := uint64(1)<<uint(bits) - 1
	folded := uint64(0)
	for f := 0; f < d.Folds; f++ {
		folded ^= v & mask
		v >>= uint(bits)
	}
	return uint32(folded)
}

// dolcPath is a path history register that keeps the older fields of a
// DOLC intermediate index assembled as a shift register, so each step's
// index costs one XOR fold instead of a walk over D history entries.
// Push shifts the previous last task into the register as the youngest
// older field; index appends the last task's L bits and the current
// task's C bits and folds. Every index equals DOLC.Index over the same
// history, including the 64-bit truncation of very long intermediate
// indexes (pinned by test).
type dolcPath struct {
	hist PathHistory

	depth                int
	older, last, current uint   // field widths O, L, C
	olderM, lastM, currM uint64 // field masks (zero for absent fields)
	olderRegM            uint64 // the (D-1)·O bits of the older register
	bits                 uint   // folded index width
	mask                 uint64
	folds                int

	olderReg uint64 // O-bit fields of Current_Task-D … -2, oldest highest
}

func newDOLCPath(d DOLC) dolcPath {
	p := dolcPath{
		depth: d.Depth,
		older: uint(d.Older), last: uint(d.Last), current: uint(d.Current),
		currM: 1<<uint(d.Current) - 1,
		bits:  uint(d.IndexBits()),
		folds: max(d.Folds, 1),
	}
	p.mask = 1<<p.bits - 1
	if d.Depth >= 1 {
		p.lastM = 1<<uint(d.Last) - 1
	}
	if d.Depth >= 2 {
		p.olderM = 1<<uint(d.Older) - 1
		p.olderRegM = ^uint64(0)
		if w := (d.Depth - 1) * d.Older; w < 64 {
			p.olderRegM = 1<<uint(w) - 1
		}
	}
	return p
}

// index returns the DOLC index of the current task under the history.
func (p *dolcPath) index(current isa.Addr) uint32 {
	v := (p.olderReg<<p.last|uint64(p.hist.ring[p.hist.head])&p.lastM)<<p.current | uint64(current)&p.currM
	f := v & p.mask
	for i := 1; i < p.folds; i++ {
		v >>= p.bits
		f ^= v & p.mask
	}
	return uint32(f)
}

// push shifts a completed task into the history.
func (p *dolcPath) push(addr isa.Addr) {
	last := uint64(p.hist.ring[p.hist.head])
	p.olderReg = (p.olderReg<<p.older | last&p.olderM) & p.olderRegM
	p.hist.Push(addr)
}

// resync rebuilds the older register from the history ring after the
// ring changed behind push's back (fault injection).
func (p *dolcPath) resync() {
	p.olderReg = 0
	for i := p.depth; i >= 2; i-- {
		p.olderReg = p.olderReg<<p.older | uint64(p.hist.At(i))&p.olderM
	}
	p.olderReg &= p.olderRegM
}

// reset clears the history register.
func (p *dolcPath) reset() {
	p.hist.Reset()
	p.olderReg = 0
}

// MustDOLC builds a DOLC configuration and panics if it is invalid; it is
// a convenience for the experiment tables, whose configurations are
// static.
//
// Panic contract: Must* constructors in this package panic if and only if
// their statically-known arguments fail Validate — a programming error,
// never a data-dependent condition. Runtime-provided configurations (CLI
// flags, fault specs) must go through the error-returning constructors
// (DOLC.Validate, NewPathExit, NewCTTB, ...).
func MustDOLC(depth, older, last, current, folds int) DOLC {
	d := DOLC{Depth: depth, Older: older, Last: last, Current: current, Folds: folds}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}
