package trace

import (
	"errors"
	"fmt"
	"unsafe"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// BlockSteps is the number of trace steps per block: the unit the
// columnar replay kernels decode and evaluate at a time, and the framing
// unit of the on-disk format (see colio.go). 4096 steps keep a decoded
// block's flat buffers comfortably inside L2 while amortizing per-block
// overhead to noise.
const BlockSteps = 4096

// DictLimit is the maximum number of dictionary entries a columnar trace
// can reference: step columns store 16-bit dictionary indices, which is
// what makes the in-memory encoding 5 bytes per step. Traces over
// programs with more than 64Ki distinct task/target addresses are not
// columnar-encodable and cannot be replayed.
const DictLimit = 1 << 16

// ErrNotColumnar marks a trace that cannot be columnar-encoded (unknown
// task addresses, out-of-range exits, or a dictionary past DictLimit).
// There is no other replay path: callers report the wrapped error.
var ErrNotColumnar = errors.New("trace: not columnar-encodable")

// DictEntry is one interned address of a columnar trace: the address
// itself plus everything the replay kernels need per step, pre-resolved
// once per distinct address instead of once per dynamic step.
type DictEntry struct {
	// Addr is the interned instruction address.
	Addr isa.Addr
	// Task is the task starting at Addr (nil when the address was only
	// ever a target and starts no task — legal for the final target of a
	// capped trace).
	Task *tfg.Task
	// NumExits is len(Task.Exits) (0 for non-task entries).
	NumExits uint8
	// Kinds is the task's per-exit control kind table.
	Kinds [tfg.MaxExits]isa.ControlKind
	// Indirect caches Kinds[i].IsIndirect().
	Indirect [tfg.MaxExits]bool
}

// Dict is the address dictionary of a columnar trace: every distinct
// task and target address, in first-appearance order. It is built once
// at encode time, frozen, and shared read-only by every replay (and by
// prefix views of the trace).
type Dict struct {
	// Entries is the interned-address table; step columns index into it.
	// Read-only after encoding.
	Entries []DictEntry
}

// Len returns the number of interned addresses.
func (d *Dict) Len() int { return len(d.Entries) }

// newDictEntry resolves addr against g (nil for structural-only traces).
func newDictEntry(g *tfg.Graph, addr isa.Addr) DictEntry {
	ent := DictEntry{Addr: addr}
	if g == nil {
		return ent
	}
	if t := taskAt(g, addr); t != nil {
		ent.Task = t
		ent.NumExits = uint8(len(t.Exits))
		for i, x := range t.Exits {
			ent.Kinds[i] = x.Kind
			ent.Indirect[i] = x.Kind.IsIndirect()
		}
	}
	return ent
}

// taskAt is g.TaskAt answered by the graph's execution table for
// in-text addresses, so interning a run's addresses hashes nothing; only
// addresses outside the text fall back to the task map.
func taskAt(g *tfg.Graph, addr isa.Addr) *tfg.Task {
	if g.Prog == nil || int(addr) >= len(g.Prog.Code) {
		return g.TaskAt(addr)
	}
	if x := g.Exec().TaskAt(addr); x != nil {
		return x.Task
	}
	return nil
}

// Block is one decoded unit of a columnar trace: parallel per-step
// columns plus the shared dictionary. The replay kernels walk the
// columns in a tight loop, resolving tasks, kinds and targets through
// the dictionary — no maps, no per-step allocation.
//
// A Block returned by a BlockSource is valid only until the next
// NextBlock call: sources reuse the underlying buffers.
type Block struct {
	// N is the number of steps in the block.
	N int
	// TaskIdx is the per-step dictionary index of the executed task.
	TaskIdx []uint16
	// Exits is the per-step exit index actually taken (HaltExit on halt
	// steps).
	Exits []int8
	// TargetIdx is the per-step dictionary index of the next task's
	// address (0 and meaningless on halt steps).
	TargetIdx []uint16
	// Dict resolves the index columns.
	Dict *Dict
}

// BlockSource produces a columnar trace block by block. NextBlock
// returns (nil, nil) after the final block. Implementations include the
// in-memory Cursor and the workload package's streaming generator, which
// pipelines functional simulation into replay without ever holding the
// full trace.
type BlockSource interface {
	NextBlock() (*Block, error)
}

// Columnar is the struct-of-arrays encoding of a dynamic task trace:
// three parallel columns (task-index, exit, target-index) over a shared
// address dictionary. At 5 bytes per step it replaces the 12 bytes per
// step of the array-of-structs Trace, and its Blocks cursor feeds the
// block-wise replay kernels in internal/core.
//
// Like Trace, a Columnar is shared read-only across concurrent replays.
type Columnar struct {
	// Graph is the TFG the trace was produced from (nil only for
	// structurally-read files that were never bound to a graph).
	Graph *tfg.Graph
	// Dict is the shared address dictionary.
	Dict *Dict

	taskIdx   []uint16
	exits     []int8
	targetIdx []uint16

	// shared marks a prefix view whose columns and dictionary are owned
	// by another Columnar (memory accounting reports views as free).
	shared bool
}

// Len returns the number of steps, including any halt steps.
func (c *Columnar) Len() int { return len(c.exits) }

// PredictionSteps returns the number of prediction events: every step
// but a trailing halt (the encoder and the decoder admit a halt only as
// the last step).
func (c *Columnar) PredictionSteps() int {
	if c.Halted() {
		return c.Len() - 1
	}
	return c.Len()
}

// Halted reports whether the trace ends in a halt step.
func (c *Columnar) Halted() bool {
	n := len(c.exits)
	return n > 0 && c.exits[n-1] == HaltExit
}

// Footprint returns the heap bytes held by the columns and dictionary.
// Prefix views report only their constant header size — their backing
// arrays belong to the trace they were sliced from.
func (c *Columnar) Footprint() int {
	const header = 128 // struct + slice headers, approximate
	if c.shared {
		return header
	}
	dict := 0
	if c.Dict != nil {
		dict = len(c.Dict.Entries) * int(unsafe.Sizeof(DictEntry{}))
	}
	return header + dict + 2*len(c.taskIdx) + len(c.exits) + 2*len(c.targetIdx)
}

// Cursor iterates a Columnar block-wise. The yielded Block's columns are
// subslices of the trace's columns — iteration decodes nothing and
// allocates nothing per block.
type Cursor struct {
	c   *Columnar
	pos int
	blk Block
}

// Blocks returns a fresh cursor over the trace. Each replay uses its own
// cursor; the underlying trace is shared read-only.
func (c *Columnar) Blocks() *Cursor {
	return &Cursor{c: c, blk: Block{Dict: c.Dict}}
}

// NextBlock implements BlockSource. The returned block is valid until
// the next call.
func (cur *Cursor) NextBlock() (*Block, error) {
	c := cur.c
	if cur.pos >= len(c.exits) {
		return nil, nil
	}
	end := cur.pos + BlockSteps
	if end > len(c.exits) {
		end = len(c.exits)
	}
	cur.blk.N = end - cur.pos
	cur.blk.TaskIdx = c.taskIdx[cur.pos:end]
	cur.blk.Exits = c.exits[cur.pos:end]
	cur.blk.TargetIdx = c.targetIdx[cur.pos:end]
	cur.pos = end
	return &cur.blk, nil
}

// Prefix returns a view of the first n steps, sharing the dictionary and
// column backing arrays (the functional simulator is deterministic, so a
// capped run is exactly a prefix of the full run). n is clamped to
// [0, Len]; a view costs O(1) whatever its length.
func (c *Columnar) Prefix(n int) *Columnar {
	if n >= c.Len() {
		return c
	}
	n = max(n, 0)
	return &Columnar{
		Graph:     c.Graph,
		Dict:      c.Dict,
		taskIdx:   c.taskIdx[:n:n],
		exits:     c.exits[:n:n],
		targetIdx: c.targetIdx[:n:n],
		shared:    true,
	}
}

// Materialize decodes the columns back into an array-of-structs Trace
// (the adapter view for callers that need Steps: validation, checksums,
// per-step attribution studies). The round trip is lossless.
func (c *Columnar) Materialize() *Trace {
	steps := make([]Step, c.Len())
	entries := c.Dict.Entries
	for i := range steps {
		s := &steps[i]
		s.Task = entries[c.taskIdx[i]].Addr
		s.Exit = c.exits[i]
		if s.Exit != HaltExit {
			s.Target = entries[c.targetIdx[i]].Addr
		}
	}
	return &Trace{Graph: c.Graph, Steps: steps}
}

// DistinctTasks returns the number of distinct static tasks appearing in
// the trace (Trace.DistinctTasks over the task column).
func (c *Columnar) DistinctTasks() int {
	seen := make([]bool, len(c.Dict.Entries))
	n := 0
	for _, idx := range c.taskIdx {
		if !seen[idx] {
			seen[idx] = true
			n++
		}
	}
	return n
}

// DynamicExitHistogram mirrors Trace.DynamicExitHistogram over the
// columns.
func (c *Columnar) DynamicExitHistogram() [tfg.MaxExits + 1]int {
	var h [tfg.MaxExits + 1]int
	entries := c.Dict.Entries
	for _, idx := range c.taskIdx {
		h[entries[idx].NumExits]++
	}
	return h
}

// DynamicExitKinds mirrors Trace.DynamicExitKinds over the columns.
func (c *Columnar) DynamicExitKinds() map[isa.ControlKind]int {
	var byKind [isa.NumControlKinds]int
	entries := c.Dict.Entries
	for i, idx := range c.taskIdx {
		if e := c.exits[i]; e != HaltExit {
			byKind[entries[idx].Kinds[e]]++
		}
	}
	m := make(map[isa.ControlKind]int)
	for k, n := range byKind {
		if n > 0 {
			m[isa.ControlKind(k)] = n
		}
	}
	return m
}

// Encoder builds a Columnar incrementally from step batches. It is the
// capture side of the streaming pipeline: generators append a segment at
// a time and never need the whole trace in array-of-structs form.
//
// With a non-nil graph, Append validates every step (task exists, exit
// in range, kind in enumeration) so the resulting columns are safe for
// the no-bounds-check replay kernels. A halt step must be the last step
// of the trace. All validation failures wrap ErrNotColumnar.
//
// The columns only grow by appending (Writer and BlockBuilder, which
// reuse theirs, never snapshot), so a Snapshot stays valid while the
// encoder keeps going: later steps land past its capped lengths or in
// new backing arrays.
type Encoder struct {
	g    *tfg.Graph
	dict *Dict
	// dense maps each in-text address to its dictionary index + 1 (0 =
	// not yet interned); index is the fallback for addresses outside
	// the text and for graph-less encoders, made on first use.
	dense []uint32
	index map[isa.Addr]uint16

	taskIdx   []uint16
	exits     []int8
	targetIdx []uint16
	done      bool
}

// NewEncoder returns an encoder binding the trace to graph.
func NewEncoder(g *tfg.Graph) *Encoder {
	e := &Encoder{g: g, dict: &Dict{}}
	if g != nil && g.Prog != nil {
		e.dense = make([]uint32, len(g.Prog.Code))
	}
	return e
}

// intern returns the dictionary index for addr, adding an entry on first
// use. Entries keep first-appearance order whichever table finds them.
func (e *Encoder) intern(addr isa.Addr) (uint16, error) {
	if int(addr) < len(e.dense) {
		if v := e.dense[addr]; v != 0 {
			return uint16(v - 1), nil
		}
	} else if idx, ok := e.index[addr]; ok {
		return idx, nil
	}
	return e.add(addr)
}

// add appends addr's dictionary entry and records its index.
func (e *Encoder) add(addr isa.Addr) (uint16, error) {
	if len(e.dict.Entries) >= DictLimit {
		return 0, fmt.Errorf("trace: dictionary past %d distinct addresses: %w", DictLimit, ErrNotColumnar)
	}
	idx := uint16(len(e.dict.Entries))
	e.dict.Entries = append(e.dict.Entries, newDictEntry(e.g, addr))
	if int(addr) < len(e.dense) {
		e.dense[addr] = uint32(idx) + 1
		return idx, nil
	}
	if e.index == nil {
		e.index = make(map[isa.Addr]uint16)
	}
	e.index[addr] = idx
	return idx, nil
}

// Append encodes a batch of steps. The batch may be any length; blocks
// are a framing concern of the cursor and the on-disk format, not of
// encoding. Any step after a halt step is rejected.
func (e *Encoder) Append(steps []Step) error {
	if e.done {
		return fmt.Errorf("trace: Encoder.Append after Finish")
	}
	if n := len(e.exits); n > 0 && e.exits[n-1] == HaltExit && len(steps) > 0 {
		return fmt.Errorf("trace: step after a halt step: %w", ErrNotColumnar)
	}
	for i := range steps {
		s := &steps[i]
		ti, err := e.intern(s.Task)
		if err != nil {
			return err
		}
		ent := &e.dict.Entries[ti]
		if s.Exit == HaltExit {
			if i != len(steps)-1 {
				return fmt.Errorf("trace: step after a halt step: %w", ErrNotColumnar)
			}
			e.taskIdx = append(e.taskIdx, ti)
			e.exits = append(e.exits, HaltExit)
			e.targetIdx = append(e.targetIdx, 0)
			continue
		}
		if e.g != nil {
			if ent.Task == nil {
				return fmt.Errorf("trace: step @%d is not a task: %w", s.Task, ErrNotColumnar)
			}
			if int(s.Exit) < 0 || int(s.Exit) >= int(ent.NumExits) {
				return fmt.Errorf("trace: task @%d exit %d of %d: %w", s.Task, s.Exit, ent.NumExits, ErrNotColumnar)
			}
			if ent.Kinds[s.Exit] >= isa.NumControlKinds {
				return fmt.Errorf("trace: task @%d exit %d has kind %d: %w", s.Task, s.Exit, ent.Kinds[s.Exit], ErrNotColumnar)
			}
		} else if int(s.Exit) < 0 || int(s.Exit) >= tfg.MaxExits {
			return fmt.Errorf("trace: exit %d outside header range: %w", s.Exit, ErrNotColumnar)
		}
		gi, err := e.intern(s.Target)
		if err != nil {
			return err
		}
		e.taskIdx = append(e.taskIdx, ti)
		e.exits = append(e.exits, s.Exit)
		e.targetIdx = append(e.targetIdx, gi)
	}
	return nil
}

// Len returns the number of steps appended so far.
func (e *Encoder) Len() int { return len(e.exits) }

// Snapshot returns the steps appended so far as an immutable Columnar
// that owns its columns for memory accounting. Its columns and a fresh
// Dict over the entries are capped at their current lengths, so the
// encoder may keep appending while readers replay the snapshot.
func (e *Encoder) Snapshot() *Columnar {
	n, k := len(e.exits), len(e.dict.Entries)
	return &Columnar{
		Graph:     e.g,
		Dict:      &Dict{Entries: e.dict.Entries[:k:k]},
		taskIdx:   e.taskIdx[:n:n],
		exits:     e.exits[:n:n],
		targetIdx: e.targetIdx[:n:n],
	}
}

// Finish freezes and returns the columnar trace. The encoder must not be
// used afterwards.
func (e *Encoder) Finish() *Columnar {
	e.done = true
	e.dense, e.index = nil, nil // the dictionary is frozen; drop the lookups
	return e.Snapshot()
}

// FromTrace columnar-encodes an existing array-of-structs trace.
func FromTrace(tr *Trace) (*Columnar, error) {
	e := NewEncoder(tr.Graph)
	if err := e.Append(tr.Steps); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// BlockBuilder converts step batches into transient Blocks without
// accumulating columns — the generation side of streaming replay. The
// dictionary grows across blocks; the column buffers are reused, so a
// built block is valid only until the next Build call. A halt step must
// end its batch; the next batch may start a new run.
type BlockBuilder struct {
	enc *Encoder
	blk Block
}

// NewBlockBuilder returns a builder interning against graph.
func NewBlockBuilder(g *tfg.Graph) *BlockBuilder {
	return &BlockBuilder{enc: NewEncoder(g)}
}

// Build encodes one batch of steps (at most BlockSteps of them) into the
// reused block.
func (bb *BlockBuilder) Build(steps []Step) (*Block, error) {
	e := bb.enc
	e.taskIdx = e.taskIdx[:0]
	e.exits = e.exits[:0]
	e.targetIdx = e.targetIdx[:0]
	if err := e.Append(steps); err != nil {
		return nil, err
	}
	bb.blk = Block{
		N:         len(e.exits),
		TaskIdx:   e.taskIdx,
		Exits:     e.exits,
		TargetIdx: e.targetIdx,
		Dict:      e.dict,
	}
	return &bb.blk, nil
}
