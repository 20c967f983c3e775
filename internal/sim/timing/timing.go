// Package timing models a Multiscalar processor's execution timing — the
// detailed-simulator counterpart to the paper's Table 4.
//
// The model is a commit-order analytic ring simulation. Processing units
// are arranged in a ring and assigned tasks round-robin by the global
// sequencer, which dispatches one (predicted) task per cycle. Within a
// unit, instructions issue in order, cfg.IssueWidth per cycle, stalling
// on operands via a global register scoreboard; values produced by a
// different in-flight task incur a forwarding delay (the register ring of
// the Multiscalar hardware). Intra-task conditional branches are
// predicted by a per-unit bimodal predictor (the paper's stated intra-
// task mechanism), with a fixed penalty per miss. Tasks commit strictly
// in order. When the inter-task predictor mispredicts a task's successor,
// all younger (speculative) work is squashed: the sequencer restarts
// dispatch after the mispredicted task commits, plus a restart penalty.
//
// The model never re-executes the program. It reads each task's exit
// and successor from a recorded trace and walks the task's instructions
// through static code with the run's branch column (functional.Walker):
// a task's path is fixed by its start and its conditional-branch
// outcomes, so the walk sees exactly the instructions the interpreter
// ran. Nor does it drive the inter-task predictor: the task kernels
// (internal/core) score the trace first and hand it a per-step outcome
// column, of which it reads two facts per task — did the prediction
// miss, and did the predictor roll back.
//
// Simplifications, documented in DESIGN.md: memory disambiguation is
// perfect (the ARB is a separate paper), wrong-path execution occupies no
// modelled resources beyond the restart bubble, and functional-unit
// latencies are fixed per opcode class.
package timing

import (
	"errors"
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Config parameterizes the ring model. Zero values select the defaults
// used for the Table 4 reproduction (4 units, 2-way, as in the paper's
// "four 2-way OOO processing units").
type Config struct {
	Units          int // processing units in the ring (default 4)
	IssueWidth     int // instructions issued per unit per cycle (default 2)
	BranchPenalty  int // intra-task branch mispredict penalty (default 4)
	RestartPenalty int // cycles from head commit to redirected dispatch (default 8: sequencer redirect plus ring refill startup)
	ForwardLatency int // extra cycles for cross-task register values (default 1)
	BimodalBits    int // log2 entries of each unit's bimodal table (default 10)
	MaxSteps       int // dynamic task budget; 0 = run to halt

	// SpecUpdate trains the inter-task predictor speculatively at
	// prediction time and repairs it through its undo log on every
	// rollback (core.EvaluateTaskSpecBlocksInto) instead of the
	// idealized train-on-commit update. Outcomes reads it to choose the
	// task kernel; ignored for the perfect (nil) predictor, which has
	// no state to speculate.
	SpecUpdate bool
	// SpecLag is the speculative session's resolution lag in tasks
	// (SpecUpdate only; 0 resolves each prediction at the next boundary).
	SpecLag int
	// RepairLatency is charged against sequencer dispatch on every
	// predictor rollback (the outcome column's rollback bits), modelling
	// the cycles the repair drain occupies the prediction structures.
	RepairLatency int
}

func (c Config) withDefaults() Config {
	if c.Units == 0 {
		c.Units = 4
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 2
	}
	if c.BranchPenalty == 0 {
		c.BranchPenalty = 4
	}
	if c.RestartPenalty == 0 {
		c.RestartPenalty = 8
	}
	if c.ForwardLatency == 0 {
		c.ForwardLatency = 1
	}
	if c.BimodalBits == 0 {
		c.BimodalBits = 10
	}
	return c
}

// Result summarizes a timing run.
type Result struct {
	Cycles           uint64
	Instrs           uint64
	Tasks            int
	TaskMispredicts  int
	IntraMispredicts uint64

	// Rollbacks counts predictor-state repairs and RepairCycles the
	// dispatch cycles they cost (speculative-update runs only; both stay
	// zero in idealized mode and under the perfect predictor). RunTrace
	// charges the rollbacks its outcome column marks and leaves
	// Rollbacks to the caller that ran the task kernel: the kernel's
	// count also holds the repairs made after the last task.
	Rollbacks    int
	RepairCycles uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// TaskMissRate returns the inter-task prediction miss rate observed.
func (r Result) TaskMissRate() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.TaskMispredicts) / float64(r.Tasks)
}

// latency returns the execution latency of an opcode.
func latency(op isa.Op) uint64 {
	switch op {
	case isa.Mul, isa.MulI:
		return 3
	case isa.Div, isa.Rem:
		return 8
	case isa.Lw:
		return 2
	default:
		return 1
	}
}

// Run executes the program under g with the given inter-task predictor
// and returns timing results. A nil predictor models perfect inter-task
// prediction (the paper's "Perfect" row). It interprets the program
// once, recording its task trace and branch column, scores the
// predictor over the trace (Outcomes), and runs RunTrace over the
// outcome column.
func Run(g *tfg.Graph, pred core.TaskPredictor, cfg Config) (Result, error) {
	var br functional.Branches
	tr, _, err := functional.Run(g, functional.Config{MaxSteps: cfg.MaxSteps, Branches: &br})
	if err != nil {
		return Result{}, fmt.Errorf("timing: %w", err)
	}
	c, err := trace.FromTrace(tr)
	if err != nil {
		return Result{}, fmt.Errorf("timing: %w", err)
	}
	col, task, err := Outcomes(c, pred, cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := RunTrace(c, br.Bits(), col, cfg)
	if err != nil {
		return Result{}, err
	}
	res.Rollbacks = task.Rollbacks
	return res, nil
}

// Outcomes scores pred over the steps RunTrace(c, …, cfg) walks through
// the task kernel cfg selects (speculative when cfg.SpecUpdate) and
// returns their outcome column and the kernel's result, whose
// Rollbacks the caller copies into RunTrace's. A nil pred (perfect
// prediction) scores nothing and returns a nil column.
func Outcomes(c *trace.Columnar, pred core.TaskPredictor, cfg Config) (core.OutcomeColumn, core.TaskResult, error) {
	if pred == nil {
		return nil, core.TaskResult{}, nil
	}
	if cfg.MaxSteps > 0 {
		c = c.Prefix(cfg.MaxSteps)
	}
	col := core.NewOutcomeColumn(c.Len())
	var task core.TaskResult
	var err error
	if cfg.SpecUpdate {
		task, err = core.EvaluateTaskSpecBlocksInto(c.Blocks(), pred, cfg.SpecLag, col)
	} else {
		task, err = core.EvaluateTaskBlocksInto(c.Blocks(), pred, col)
	}
	if err != nil {
		return nil, task, fmt.Errorf("timing: %w", err)
	}
	return col, task, nil
}

// RunTrace runs the model over a recorded run: the first cfg.MaxSteps
// steps of c (all of them when 0), which must be bound to its graph,
// the run's branch column, and the inter-task predictor's outcome
// column over the same steps (Outcomes; nil for perfect prediction).
// Both columns must cover those steps and may run past them. Each
// task's instructions come from walking static code (functional.Walker)
// and its exit and successor from the trace, so the result is the one
// the interpreter-driven run computes; a path the walk cannot recover
// is an error.
func RunTrace(c *trace.Columnar, bits functional.BranchBits, col core.OutcomeColumn, cfg Config) (Result, error) {
	if c.Graph == nil {
		return Result{}, errors.New("timing: trace is not bound to a graph")
	}
	if cfg.MaxSteps > 0 {
		c = c.Prefix(cfg.MaxSteps)
	}
	if col != nil && 32*len(col) < c.Len() {
		return Result{}, fmt.Errorf("timing: outcome column covers %d steps, the run has %d", 32*len(col), c.Len())
	}
	cfg = cfg.withDefaults()
	s := &simState{
		cfg:      cfg,
		rows:     decodeRows(c.Graph.Prog.Code),
		col:      col,
		unitFree: make([]uint64, cfg.Units),
		bimodal:  make([]uint8, cfg.Units<<uint(cfg.BimodalBits)),
	}
	// Initialize weakly-taken so loops start reasonably.
	for i := range s.bimodal {
		s.bimodal[i] = 2
	}

	w := functional.NewWalker(c.Graph, bits)
	cur := c.Blocks()
	for {
		blk, err := cur.NextBlock()
		if err != nil {
			return Result{}, fmt.Errorf("timing: %w", err)
		}
		if blk == nil {
			break
		}
		ents := blk.Dict.Entries
		for i := 0; i < blk.N; i++ {
			task, exit := &ents[blk.TaskIdx[i]], blk.Exits[i]
			path, err := w.Task(task.Addr, exit)
			if err != nil {
				return Result{}, fmt.Errorf("timing: %w", err)
			}
			s.execute(path)
			s.endTask()
		}
	}
	s.res.Cycles = s.prevCommit
	return s.res, nil
}

// row is one static instruction as the model sees it, decoded once per
// address.
type row struct {
	src  [2]isa.Reg // the registers it reads, isa.Zero excluded
	nsrc uint8
	dst  isa.Reg // isa.Zero when it writes none
	lat  uint8
	br   bool // a conditional branch
}

// decodeRows decodes every instruction of code.
func decodeRows(code []isa.Instr) []row {
	rows := make([]row, len(code))
	var uses []isa.Reg
	for pc := range code {
		in, r := &code[pc], &rows[pc]
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			if u != isa.Zero {
				r.src[r.nsrc] = u
				r.nsrc++
			}
		}
		r.dst, r.lat, r.br = in.Def(), uint8(latency(in.Op)), in.Op == isa.Br
	}
	return rows
}

// simState is the ring model's accumulator, driven one task path at a
// time.
type simState struct {
	cfg  Config
	rows []row
	col  core.OutcomeColumn // nil: perfect prediction

	res Result

	// Scoreboard.
	regs [isa.NumRegs]regState

	unitFree []uint64
	bimodal  []uint8 // the units' tables, 1<<cfg.BimodalBits entries each, unit 0 first

	dispatch   uint64 // earliest cycle the sequencer can dispatch the next task
	prevCommit uint64

	// Current task state.
	taskIdx  int
	curUnit  int
	complete uint64 // the cycle its last result is ready
}

// regState is one register's scoreboard entry: the cycle its value is
// ready and the task that wrote it.
type regState struct {
	ready  uint64
	writer int
}

// execute dispatches the current task to its unit and issues its path,
// the last instruction of which ends the task.
func (s *simState) execute(path []functional.PathInstr) {
	s.curUnit = s.taskIdx % s.cfg.Units
	t := s.dispatch
	if f := s.unitFree[s.curUnit]; f > t {
		t = f
	}
	s.dispatch = t + 1 // the sequencer predicts/dispatches one task per cycle
	s.res.Instrs += uint64(len(path))

	// The issue state lives in locals for the whole path.
	slotCycle, slotUsed, complete := t, 0, t
	fwd, width := uint64(s.cfg.ForwardLatency), s.cfg.IssueWidth
	task, rows, regs := s.taskIdx, s.rows, &s.regs
	size := 1 << uint(s.cfg.BimodalBits)
	bimodal := s.bimodal[s.curUnit*size : (s.curUnit+1)*size]
	mask := uint32(size - 1)
	last := len(path) - 1
	for k, pi := range path {
		r := &rows[pi.PC]

		// Operand readiness through the scoreboard.
		ready := slotCycle
		for _, src := range r.src[:r.nsrc] {
			reg := &regs[src]
			t := reg.ready
			if reg.writer != task {
				t += fwd
			}
			ready = max(ready, t)
		}

		// In-order issue, IssueWidth per cycle.
		if slotUsed >= width {
			slotCycle++
			slotUsed = 0
		}
		if ready > slotCycle {
			slotCycle = ready
			slotUsed = 0
		}
		issue := slotCycle
		slotUsed++

		done := issue + uint64(r.lat)
		if r.dst != isa.Zero {
			regs[r.dst] = regState{ready: done, writer: task}
		}
		complete = max(complete, done)

		// Intra-task branch prediction (per-unit bimodal); a branch
		// that leaves the task is the inter-task predictor's.
		if r.br && k != last {
			ctr := &bimodal[uint32(pi.PC)&mask]
			if (*ctr >= 2) != pi.Taken {
				s.res.IntraMispredicts++
				slotCycle = issue + uint64(s.cfg.BranchPenalty)
				slotUsed = 0
			}
			if pi.Taken {
				if *ctr < 3 {
					*ctr++
				}
			} else if *ctr > 0 {
				*ctr--
			}
		}
	}
	s.complete = complete
}

// endTask retires the current task: commit in FIFO order, then apply
// the outcome of the inter-task prediction that dispatched its
// successor (a halt step's bits are clear: it predicts nothing).
func (s *simState) endTask() {
	commit := s.complete
	if commit <= s.prevCommit {
		commit = s.prevCommit + 1
	}
	s.unitFree[s.curUnit] = commit
	s.prevCommit = commit
	s.res.Tasks++

	if s.col != nil {
		if s.col.Miss(s.taskIdx) {
			s.res.TaskMispredicts++
			// Squash: younger speculative work is discarded; dispatch
			// resumes after this task commits, plus a restart penalty.
			s.dispatch = commit + uint64(s.cfg.RestartPenalty)
		}
		if s.col.Rollback(s.taskIdx) && s.cfg.RepairLatency > 0 {
			// The repair drain occupies the prediction structures: the
			// sequencer cannot dispatch (or re-dispatch after a squash)
			// until it completes.
			s.dispatch += uint64(s.cfg.RepairLatency)
			s.res.RepairCycles += uint64(s.cfg.RepairLatency)
		}
	}
	s.taskIdx++
}
