// Package program represents an MSA program — a flat text segment of
// instructions plus symbolic metadata (labels, functions) — and builds the
// basic-block control flow graph over it.
package program

import (
	"fmt"
	"sort"

	"multiscalar/internal/isa"
)

// Program is a complete MSA executable image.
//
// Code is the text segment; the instruction at Code[i] has address
// isa.Addr(i). Entry is the address where execution begins. DataSize is the
// number of data-memory words the program requires (the loader zero-fills
// them; workload harnesses may pre-populate input regions).
type Program struct {
	Code     []isa.Instr
	Entry    isa.Addr
	DataSize int

	// Lines maps each instruction to the 1-based source line it was
	// generated from (assembly line for asm, MSL line for the compiler);
	// 0 means unknown. Either empty (no position info) or parallel to
	// Code. Diagnostics use it via LineOf.
	Lines []int

	// Data holds initial values for the first len(Data) words of data
	// memory (globals, jump tables). The loader copies it before
	// execution.
	Data []int64

	// Labels maps symbolic names to addresses. Functions is the subset of
	// labels that are function entry points, used by the task former to
	// seed tasks and by diagnostics to name regions.
	Labels    map[string]isa.Addr
	Functions map[string]isa.Addr

	// DataSymbols names regions of data memory (globals, arrays), letting
	// harnesses install inputs and read outputs by name.
	DataSymbols map[string]DataSym
}

// DataSym is a named region of data memory.
type DataSym struct {
	Addr int // first word
	Size int // words
}

// New returns an empty program with initialized symbol tables.
func New() *Program {
	return &Program{
		Labels:      make(map[string]isa.Addr),
		Functions:   make(map[string]isa.Addr),
		DataSymbols: make(map[string]DataSym),
	}
}

// LineOf returns the source line the instruction at addr was generated
// from, or 0 when no position information is available.
func (p *Program) LineOf(addr isa.Addr) int {
	if int(addr) < len(p.Lines) {
		return p.Lines[addr]
	}
	return 0
}

// NameOf returns the label for an address if one exists, preferring
// function names. It is O(n) and intended for diagnostics only.
func (p *Program) NameOf(addr isa.Addr) string {
	for name, a := range p.Functions {
		if a == addr {
			return name
		}
	}
	for name, a := range p.Labels {
		if a == addr {
			return name
		}
	}
	return ""
}

// Validate checks structural invariants:
//   - the program is non-empty and the entry address is in range,
//   - every instruction validates individually,
//   - every basic block ends in a control transfer (MSA has no
//     fall-through, so the instruction before any branch target or after
//     any non-control instruction must keep control flowing linearly —
//     concretely, only control transfers may be followed by an instruction
//     that is a branch target, and the final instruction must be a control
//     transfer).
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program: empty text segment")
	}
	if int(p.Entry) >= len(p.Code) {
		return fmt.Errorf("program: entry @%d outside text of %d words", p.Entry, len(p.Code))
	}
	for i, in := range p.Code {
		if err := in.Validate(len(p.Code)); err != nil {
			return fmt.Errorf("program: @%d: %w", i, err)
		}
	}
	if !p.Code[len(p.Code)-1].IsControl() {
		return fmt.Errorf("program: final instruction @%d is not a control transfer", len(p.Code)-1)
	}
	if len(p.Data) > p.DataSize {
		return fmt.Errorf("program: %d initialized data words exceed DataSize=%d", len(p.Data), p.DataSize)
	}
	if len(p.Lines) != 0 && len(p.Lines) != len(p.Code) {
		return fmt.Errorf("program: %d line records for %d instructions", len(p.Lines), len(p.Code))
	}
	for name, sym := range p.DataSymbols {
		if sym.Addr < 0 || sym.Size < 0 || sym.Addr+sym.Size > p.DataSize {
			return fmt.Errorf("program: data symbol %q [%d,%d) outside DataSize=%d", name, sym.Addr, sym.Addr+sym.Size, p.DataSize)
		}
	}
	// Every target of a control transfer must begin a well-formed run:
	// between a leader and the next control transfer there must be no other
	// leader-creating situation that would let execution "fall into" a
	// block (MSA semantics: after a non-control instruction, execution
	// continues at the next address; that is only legal if the next
	// address is not reachable as a branch target from elsewhere... which
	// actually IS legal in MSA: a block may be entered only at its leader,
	// but straight-line flow within a block passes through non-leaders).
	// The real invariant: any address reachable as a static target must be
	// preceded (if > 0) by... nothing to enforce — straight-line flow into
	// a leader would merge flows, which MSA forbids. Enforce it:
	leaders := p.leaders()
	for addr := range leaders {
		if addr == 0 {
			continue
		}
		prev := p.Code[addr-1]
		if !prev.IsControl() {
			return fmt.Errorf("program: instruction @%d falls through into block leader @%d", addr-1, addr)
		}
	}
	return nil
}

// leaders computes the set of basic-block leader addresses: the entry
// point, every function entry, every label (labels are the only legal
// targets of indirect transfers and returns), and every static target.
func (p *Program) leaders() map[isa.Addr]bool {
	leaders := map[isa.Addr]bool{p.Entry: true}
	for _, a := range p.Labels {
		leaders[a] = true
	}
	for _, in := range p.Code {
		for _, t := range in.StaticTargets() {
			leaders[t] = true
		}
		if in.Op == isa.Jal || in.Op == isa.Jalr {
			leaders[in.Link] = true
		}
	}
	return leaders
}

// Block is a basic block: a maximal straight-line run of instructions
// ending in a control transfer (or Halt).
type Block struct {
	Start isa.Addr // address of the first instruction
	End   isa.Addr // address of the terminating control transfer (inclusive)

	// Succs lists the statically-known successor block start addresses.
	// Returns and indirect transfers contribute no static successors.
	Succs []isa.Addr
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return int(b.End-b.Start) + 1 }

// CFG is the basic-block control flow graph of a program.
type CFG struct {
	Prog   *Program
	Blocks map[isa.Addr]*Block // keyed by block start address
	Order  []isa.Addr          // block starts in ascending address order
}

// Term returns the terminating instruction of the block starting at addr.
func (g *CFG) Term(addr isa.Addr) isa.Instr {
	return g.Prog.Code[g.Blocks[addr].End]
}

// BuildCFG partitions the program into basic blocks and records static
// successor edges. The program must validate first.
func BuildCFG(p *Program) (*CFG, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	leaders := p.leaders()
	g := &CFG{Prog: p, Blocks: make(map[isa.Addr]*Block)}

	starts := make([]isa.Addr, 0, len(leaders))
	for a := range leaders {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	for _, start := range starts {
		end := start
		for !p.Code[end].IsControl() {
			end++
			if leaders[end] {
				// Validate() rejects fall-through into a leader, so this
				// cannot happen; defend anyway.
				return nil, fmt.Errorf("program: block @%d falls into leader @%d", start, end)
			}
		}
		term := p.Code[end]
		b := &Block{Start: start, End: end, Succs: term.StaticTargets()}
		g.Blocks[start] = b
		g.Order = append(g.Order, start)
	}
	return g, nil
}

// Reachable returns the set of block starts reachable from the entry via
// static edges plus all label addresses (conservatively treating every
// label as a potential indirect/return target).
func (g *CFG) Reachable() map[isa.Addr]bool {
	seen := make(map[isa.Addr]bool)
	var stack []isa.Addr
	push := func(a isa.Addr) {
		if !seen[a] {
			seen[a] = true
			stack = append(stack, a)
		}
	}
	push(g.Prog.Entry)
	for _, a := range g.Prog.Labels {
		push(a)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := g.Blocks[a]
		if b == nil {
			continue
		}
		for _, s := range b.Succs {
			push(s)
		}
		term := g.Prog.Code[b.End]
		if term.Op == isa.Jal || term.Op == isa.Jalr {
			push(term.Link)
		}
	}
	return seen
}
