package functional

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Branches is a run's branch column: one bit per executed conditional
// branch (isa.Br), in execution order, set when the branch took
// TargetA. A machine appends to it when Config.Branches points at it.
// With the run's task trace it fixes every task's instruction path
// (see Walker), so a model that needs the instruction stream walks
// static code instead of re-running the interpreter.
//
// The column only grows, and Bits views stay immutable: full words are
// appended and never rewritten, and a view copies the partial word.
type Branches struct {
	words []uint64 // full words
	tail  uint64   // the bits past the last full word
	n     int      // bits recorded
}

// push records one branch outcome.
func (b *Branches) push(taken bool) {
	if taken {
		b.tail |= 1 << (b.n & 63)
	}
	b.n++
	if b.n&63 == 0 {
		b.words = append(b.words, b.tail)
		b.tail = 0
	}
}

// Bits returns an immutable view of the bits recorded so far. Later
// growth does not change it, so it may be read while the column grows.
func (b *Branches) Bits() BranchBits {
	k := len(b.words)
	return BranchBits{words: b.words[:k:k], tail: b.tail, n: b.n}
}

// BranchBits is an immutable view of a branch column.
type BranchBits struct {
	words []uint64 // shared with the column; never rewritten
	tail  uint64
	n     int
}

// Footprint returns the heap bytes of the view's full words.
func (b BranchBits) Footprint() int { return 8 * len(b.words) }

// bit returns outcome i, which must be below b.n.
func (b BranchBits) bit(i int) bool {
	w := b.tail
	if i>>6 < len(b.words) {
		w = b.words[i>>6]
	}
	return w>>(i&63)&1 != 0
}

// PathInstr is one executed instruction of a walked task path.
type PathInstr struct {
	PC isa.Addr
	// Taken reports, for a conditional branch, that it took TargetA.
	Taken bool
}

// Walker recovers the instruction path of each task of a recorded run
// from static code: a task's path is fixed by its start address and the
// outcomes of its conditional branches, because calls, indirect jumps
// and returns always end a task (their target is never needed) and no
// internal edge points backward. It follows control exactly as the
// interpreter does, resolving each transfer's exit through the task's
// execution-table row. A path that breaks either property, or that
// leaves through another exit than the trace recorded, is an error.
type Walker struct {
	exec *tfg.ExecTable
	code []isa.Instr
	bits BranchBits
	pos  int // next branch outcome
	path []PathInstr
}

// NewWalker returns a walker over g's program that reads branch
// outcomes from bits, from the run's first task on.
func NewWalker(g *tfg.Graph, bits BranchBits) *Walker {
	return &Walker{exec: g.Exec(), code: g.Prog.Code, bits: bits}
}

// Task walks the run's next task: the one starting at start, which the
// trace records leaving through exit (trace.HaltExit for a halt). The
// returned path ends with the instruction that left the task; it is
// valid until the next call.
func (w *Walker) Task(start isa.Addr, exit int8) ([]PathInstr, error) {
	t := w.exec.TaskAt(start)
	if t == nil {
		return nil, fmt.Errorf("walk: @%d is not a task start", start)
	}
	code, path := w.code, w.path[:0]
	pc := start
	for {
		if int(pc) >= len(code) || len(path) >= len(code) {
			return nil, fmt.Errorf("walk: task @%d: path leaves the text or repeats an instruction at @%d", start, pc)
		}
		in := &code[pc]
		slot := tfg.SlotPrimary
		switch in.Op {
		case isa.Br:
			if w.pos >= w.bits.n {
				return nil, fmt.Errorf("walk: task @%d: branch column exhausted at @%d", start, pc)
			}
			taken := w.bits.bit(w.pos)
			w.pos++
			path = append(path, PathInstr{PC: pc, Taken: taken})
			next := in.TargetA
			if !taken {
				next, slot = in.TargetB, tfg.SlotSecondary
			}
			if idx, isExit := t.Exit(pc, slot); isExit {
				return w.end(path, start, idx, exit)
			}
			pc = next
		case isa.J:
			path = append(path, PathInstr{PC: pc})
			if idx, isExit := t.Exit(pc, slot); isExit {
				return w.end(path, start, idx, exit)
			}
			pc = in.TargetA
		case isa.Jal, isa.Jr, isa.Jalr, isa.Ret:
			path = append(path, PathInstr{PC: pc})
			idx, isExit := t.Exit(pc, slot)
			if !isExit {
				return nil, fmt.Errorf("walk: task @%d: %v @%d is not an exit", start, in.Op, pc)
			}
			return w.end(path, start, idx, exit)
		case isa.Halt:
			path = append(path, PathInstr{PC: pc})
			return w.end(path, start, int(trace.HaltExit), exit)
		default:
			path = append(path, PathInstr{PC: pc})
			pc++
		}
	}
}

// end closes a walked path that left through exit idx, holding it to
// the exit the trace recorded.
func (w *Walker) end(path []PathInstr, start isa.Addr, idx int, exit int8) ([]PathInstr, error) {
	w.path = path
	if idx != int(exit) {
		return nil, fmt.Errorf("walk: task @%d left through exit %d, the trace recorded %d", start, idx, exit)
	}
	return path, nil
}
