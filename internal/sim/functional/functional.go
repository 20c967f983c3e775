// Package functional implements the MSA functional simulator: an
// instruction-level interpreter that executes a program under its Task
// Flow Graph and records the dynamic task trace — the input to every
// prediction study, per the paper's §3.1 methodology.
package functional

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Config tunes a simulation run.
type Config struct {
	// MaxSteps bounds the number of dynamic tasks executed (0 = no bound).
	MaxSteps int
	// MaxInstrs bounds the number of dynamic instructions (0 = default of
	// 4e9, a runaway-loop backstop).
	MaxInstrs uint64
	// ExtraMem adds data-memory words beyond the program's declared
	// DataSize.
	ExtraMem int
	// InitMem, if non-nil, is called with the zeroed data memory before
	// execution so workloads can install their inputs.
	InitMem func(mem []int64)
	// Branches, if non-nil, receives one bit per executed conditional
	// branch (see Branches): the run's path record for models that walk
	// static code instead of re-running the interpreter. Leave nil for
	// trace-only runs.
	Branches *Branches
}

// defaultMaxInstrs backstops runaway programs.
const defaultMaxInstrs = 4_000_000_000

// Stats are instruction-level execution statistics.
type Stats struct {
	Instrs uint64 // dynamic instructions executed
	Tasks  int    // dynamic tasks executed (including the halting one)
	Halted bool   // program executed Halt (vs. hitting a step bound)
}

// InstrsPerTask returns the average dynamic task length.
func (s Stats) InstrsPerTask() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Tasks)
}

// Machine is a running MSA interpreter. A fresh Machine is required per
// run.
type Machine struct {
	prog  *program.Program
	graph *tfg.Graph
	exec  *tfg.ExecTable
	regs  [isa.NumRegs]int64
	mem   []int64
	pc    isa.Addr
	stats Stats
	br    *Branches
}

// NewMachine prepares an interpreter for the program underlying g.
func NewMachine(g *tfg.Graph, cfg Config) *Machine {
	m := &Machine{
		prog:  g.Prog,
		graph: g,
		exec:  g.Exec(),
		mem:   make([]int64, g.Prog.DataSize+cfg.ExtraMem),
		pc:    g.Prog.Entry,
	}
	copy(m.mem, g.Prog.Data)
	if cfg.InitMem != nil {
		cfg.InitMem(m.mem)
	}
	m.br = cfg.Branches
	return m
}

// Mem exposes the data memory (for input installation and output
// verification in tests and workloads).
func (m *Machine) Mem() []int64 { return m.mem }

// Reg returns the value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// Stats returns execution statistics accumulated so far.
func (m *Machine) Stats() Stats { return m.stats }

// fault parks the machine on the faulting instruction and annotates the
// error with its PC.
func (m *Machine) fault(pc isa.Addr, instrs uint64, format string, args ...any) error {
	m.pc, m.stats.Instrs = pc, instrs
	return fmt.Errorf("functional: @%d (%v): %s", m.pc, m.prog.Code[m.pc], fmt.Sprintf(format, args...))
}

// Run executes the whole program, producing the dynamic task trace.
func Run(g *tfg.Graph, cfg Config) (*trace.Trace, Stats, error) {
	m := NewMachine(g, cfg)
	tr, err := m.Run(cfg)
	return tr, m.stats, err
}

// maxPresize caps how many steps Run reserves up front for a capped
// run (768 KiB of steps), so a large cap on a short program wastes little.
const maxPresize = 1 << 16

// Run executes the machine until Halt or a configured bound, returning
// the task trace. A capped run reserves its trace up front rather than
// regrowing it.
func (m *Machine) Run(cfg Config) (*trace.Trace, error) {
	var steps []trace.Step
	if cfg.MaxSteps > 0 {
		steps = make([]trace.Step, 0, min(cfg.MaxSteps, maxPresize))
	}
	steps, err := m.AppendSteps(steps, cfg)
	if err != nil {
		return nil, err
	}
	return &trace.Trace{Graph: m.graph, Steps: steps}, nil
}

// AppendSteps is Run appending the task steps to dst instead of to a new
// trace, so a caller that drains the machine segment by segment can
// reuse one buffer. cfg.MaxSteps counts the steps of this call only.
func (m *Machine) AppendSteps(dst []trace.Step, cfg Config) ([]trace.Step, error) {
	maxInstrs := cfg.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = defaultMaxInstrs
	}
	cur := m.exec.TaskAt(m.pc)
	if cur == nil {
		return nil, fmt.Errorf("functional: entry @%d is not a task start", m.pc)
	}
	for n := 1; ; n++ {
		next, exit, halted, err := m.runTask(cur, maxInstrs)
		if err != nil {
			return nil, err
		}
		m.stats.Tasks++
		if halted {
			m.stats.Halted = true
			return append(dst, trace.Step{Task: cur.Start, Exit: trace.HaltExit}), nil
		}
		dst = append(dst, trace.Step{Task: cur.Start, Exit: int8(exit), Target: next})
		nt := m.exec.TaskAt(next)
		if nt == nil {
			return nil, fmt.Errorf("functional: task @%d exit %d targets @%d, which is not a task start",
				cur.Start, exit, next)
		}
		cur = nt
		// Park the pc on the next task's start so the next call resumes
		// there (Run re-enters from m.pc).
		m.pc = cur.Start
		if cfg.MaxSteps > 0 && n >= cfg.MaxSteps {
			return dst, nil
		}
		if m.stats.Instrs >= maxInstrs {
			return nil, fmt.Errorf("functional: instruction budget of %d exhausted (runaway program?)", maxInstrs)
		}
	}
}

// runTask interprets instructions from the task's start until control
// leaves the task, returning the successor address and exit index (or
// halted=true).
func (m *Machine) runTask(t *tfg.ExecTask, maxInstrs uint64) (next isa.Addr, exit int, halted bool, err error) {
	code, mem, regs, br := m.prog.Code, m.mem, &m.regs, m.br
	// The pc and the instruction count live in locals for the whole task;
	// every return stores them back.
	pc, instrs := t.Start, m.stats.Instrs
	for {
		if instrs >= maxInstrs {
			m.pc, m.stats.Instrs = pc, instrs
			return 0, 0, false, fmt.Errorf("functional: instruction budget of %d exhausted inside task @%d", maxInstrs, t.Start)
		}
		in := &code[pc]
		instrs++

		var target isa.Addr
		slot := tfg.SlotPrimary
		transfer := true

		switch in.Op {
		case isa.Nop:
			transfer = false
		case isa.Add:
			m.setReg(in.Rd, regs[in.Rs]+regs[in.Rt])
			transfer = false
		case isa.Sub:
			m.setReg(in.Rd, regs[in.Rs]-regs[in.Rt])
			transfer = false
		case isa.Mul:
			m.setReg(in.Rd, regs[in.Rs]*regs[in.Rt])
			transfer = false
		case isa.Div:
			if regs[in.Rt] == 0 {
				return 0, 0, false, m.fault(pc, instrs, "division by zero")
			}
			m.setReg(in.Rd, regs[in.Rs]/regs[in.Rt])
			transfer = false
		case isa.Rem:
			if regs[in.Rt] == 0 {
				return 0, 0, false, m.fault(pc, instrs, "remainder by zero")
			}
			m.setReg(in.Rd, regs[in.Rs]%regs[in.Rt])
			transfer = false
		case isa.And:
			m.setReg(in.Rd, regs[in.Rs]&regs[in.Rt])
			transfer = false
		case isa.Or:
			m.setReg(in.Rd, regs[in.Rs]|regs[in.Rt])
			transfer = false
		case isa.Xor:
			m.setReg(in.Rd, regs[in.Rs]^regs[in.Rt])
			transfer = false
		case isa.Shl:
			m.setReg(in.Rd, regs[in.Rs]<<uint64(regs[in.Rt]&63))
			transfer = false
		case isa.Shr:
			m.setReg(in.Rd, int64(uint64(regs[in.Rs])>>uint64(regs[in.Rt]&63)))
			transfer = false
		case isa.Sra:
			m.setReg(in.Rd, regs[in.Rs]>>uint64(regs[in.Rt]&63))
			transfer = false
		case isa.Slt:
			m.setBool(in.Rd, regs[in.Rs] < regs[in.Rt])
			transfer = false
		case isa.Sle:
			m.setBool(in.Rd, regs[in.Rs] <= regs[in.Rt])
			transfer = false
		case isa.Seq:
			m.setBool(in.Rd, regs[in.Rs] == regs[in.Rt])
			transfer = false
		case isa.Sne:
			m.setBool(in.Rd, regs[in.Rs] != regs[in.Rt])
			transfer = false
		case isa.AddI:
			m.setReg(in.Rd, regs[in.Rs]+int64(in.Imm))
			transfer = false
		case isa.MulI:
			m.setReg(in.Rd, regs[in.Rs]*int64(in.Imm))
			transfer = false
		case isa.AndI:
			m.setReg(in.Rd, regs[in.Rs]&int64(in.Imm))
			transfer = false
		case isa.OrI:
			m.setReg(in.Rd, regs[in.Rs]|int64(in.Imm))
			transfer = false
		case isa.XorI:
			m.setReg(in.Rd, regs[in.Rs]^int64(in.Imm))
			transfer = false
		case isa.ShlI:
			m.setReg(in.Rd, regs[in.Rs]<<uint64(uint32(in.Imm)&63))
			transfer = false
		case isa.ShrI:
			m.setReg(in.Rd, int64(uint64(regs[in.Rs])>>uint64(uint32(in.Imm)&63)))
			transfer = false
		case isa.SltI:
			m.setBool(in.Rd, regs[in.Rs] < int64(in.Imm))
			transfer = false
		case isa.SleI:
			m.setBool(in.Rd, regs[in.Rs] <= int64(in.Imm))
			transfer = false
		case isa.SeqI:
			m.setBool(in.Rd, regs[in.Rs] == int64(in.Imm))
			transfer = false
		case isa.SneI:
			m.setBool(in.Rd, regs[in.Rs] != int64(in.Imm))
			transfer = false
		case isa.Li:
			m.setReg(in.Rd, int64(in.Imm))
			transfer = false
		case isa.La:
			m.setReg(in.Rd, int64(uint32(in.Imm)))
			transfer = false
		case isa.Lw:
			addr := regs[in.Rs] + int64(in.Imm)
			if addr < 0 || addr >= int64(len(mem)) {
				return 0, 0, false, m.fault(pc, instrs, "load from %d outside memory of %d words", addr, len(mem))
			}
			m.setReg(in.Rd, mem[addr])
			transfer = false
		case isa.Sw:
			addr := regs[in.Rs] + int64(in.Imm)
			if addr < 0 || addr >= int64(len(mem)) {
				return 0, 0, false, m.fault(pc, instrs, "store to %d outside memory of %d words", addr, len(mem))
			}
			mem[addr] = regs[in.Rt]
			transfer = false
		case isa.Br:
			taken := regs[in.Rs] != 0
			if taken {
				target = in.TargetA
			} else {
				target, slot = in.TargetB, tfg.SlotSecondary
			}
			if br != nil {
				br.push(taken)
			}
		case isa.J:
			target = in.TargetA
		case isa.Jal:
			m.setReg(isa.RA, int64(in.Link))
			target = in.TargetA
		case isa.Jr:
			target = isa.Addr(regs[in.Rs])
		case isa.Jalr:
			target = isa.Addr(regs[in.Rs])
			m.setReg(isa.RA, int64(in.Link))
		case isa.Ret:
			target = isa.Addr(regs[isa.RA])
		case isa.Halt:
			m.pc, m.stats.Instrs = pc, instrs
			return 0, 0, true, nil
		default:
			return 0, 0, false, m.fault(pc, instrs, "unimplemented opcode")
		}

		if !transfer {
			pc++
			continue
		}
		if int(target) >= len(code) {
			return 0, 0, false, m.fault(pc, instrs, "transfer to @%d outside text of %d words", target, len(code))
		}
		if idx, isExit := t.Exit(pc, slot); isExit {
			m.pc, m.stats.Instrs = pc, instrs
			return target, idx, false, nil
		}
		pc = target
	}
}

func (m *Machine) setReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

func (m *Machine) setBool(r isa.Reg, b bool) {
	if b {
		m.setReg(r, 1)
	} else {
		m.setReg(r, 0)
	}
}
