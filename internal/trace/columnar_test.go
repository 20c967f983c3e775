package trace

// Tests for the columnar trace encoding: lossless round trips through
// the in-memory columns and the MSTC on-disk framing, prefix-view
// sharing, encoder validation, cursor blocking, and decoder hardening
// against corrupt and truncated streams.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"multiscalar/internal/isa"
	"multiscalar/internal/program"
	"multiscalar/internal/tfg"
)

func mustColumnar(t testing.TB, tr *Trace) *Columnar {
	t.Helper()
	c, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColumnarRoundTrip(t *testing.T) {
	tr := pingPong(500)
	c := mustColumnar(t, tr)
	if c.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), tr.Len())
	}
	if c.PredictionSteps() != tr.PredictionSteps() {
		t.Fatalf("PredictionSteps = %d, want %d", c.PredictionSteps(), tr.PredictionSteps())
	}
	if !c.Halted() {
		t.Fatal("Halted = false on a halting trace")
	}
	if !reflect.DeepEqual(c.Materialize().Steps, tr.Steps) {
		t.Fatal("Materialize does not reproduce the original steps")
	}
}

// TestColumnarStatsMatchTrace holds the column analytics to a reference
// computed step by step over the array-of-structs steps and the graph.
func TestColumnarStatsMatchTrace(t *testing.T) {
	tr := pingPong(300)
	c := mustColumnar(t, tr)
	seen := map[isa.Addr]bool{}
	var hist [tfg.MaxExits + 1]int
	kinds := map[isa.ControlKind]int{}
	for _, s := range tr.Steps {
		task := tr.Graph.TaskAt(s.Task)
		seen[s.Task] = true
		hist[len(task.Exits)]++
		if s.Exit != HaltExit {
			kinds[task.Exits[s.Exit].Kind]++
		}
	}
	if c.DistinctTasks() != len(seen) {
		t.Errorf("DistinctTasks = %d, want %d", c.DistinctTasks(), len(seen))
	}
	if c.DynamicExitHistogram() != hist {
		t.Errorf("DynamicExitHistogram = %v, want %v", c.DynamicExitHistogram(), hist)
	}
	if !reflect.DeepEqual(c.DynamicExitKinds(), kinds) {
		t.Errorf("DynamicExitKinds = %v, want %v", c.DynamicExitKinds(), kinds)
	}
}

// TestColumnarFootprint pins the resident-byte accounting on a
// hand-built trace: two dictionary entries (addresses 1 and 2) at the
// 64-byte DictEntry size of a 64-bit host, five steps at 5 bytes each,
// and the 128-byte header. A prefix view owns none of its backing.
func TestColumnarFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("DictEntry size is pinned for 64-bit hosts")
	}
	c := mustColumnar(t, pingPong(2))
	if got, want := c.Footprint(), 128+2*64+5*5; got != want {
		t.Errorf("Footprint = %d, want %d", got, want)
	}
	if got := c.Prefix(3).Footprint(); got != 128 {
		t.Errorf("prefix Footprint = %d, want the 128-byte header", got)
	}
}

func TestColumnarPrefix(t *testing.T) {
	c := mustColumnar(t, pingPong(100)) // 201 steps, halt last
	p := c.Prefix(7)
	if p.Len() != 7 || p.PredictionSteps() != 7 || p.Halted() {
		t.Fatalf("Prefix(7): Len=%d pred=%d halted=%v", p.Len(), p.PredictionSteps(), p.Halted())
	}
	// The view shares backing arrays and the dictionary with its parent.
	if &p.exits[0] != &c.exits[0] || &p.taskIdx[0] != &c.taskIdx[0] || p.Dict != c.Dict {
		t.Fatal("Prefix does not share the parent's backing arrays")
	}
	if !p.shared {
		t.Fatal("Prefix view not marked shared")
	}
	if p.Footprint() >= c.Footprint() {
		t.Fatalf("shared view footprint %d not below owner footprint %d", p.Footprint(), c.Footprint())
	}
	if !reflect.DeepEqual(p.Materialize().Steps, c.Materialize().Steps[:7]) {
		t.Fatal("Prefix(7) does not materialize to the first 7 steps")
	}
	// A prefix covering the whole trace is the trace itself; negatives clamp.
	if c.Prefix(c.Len()) != c || c.Prefix(c.Len()+5) != c {
		t.Fatal("full-length Prefix should return the receiver")
	}
	if c.Prefix(-3).Len() != 0 {
		t.Fatal("negative Prefix should clamp to empty")
	}
	// A prefix stopping short of the halt step is not halted.
	if c.Prefix(c.Len() - 1).Halted() {
		t.Fatal("prefix before halt reported halted")
	}
}

func TestEncoderValidation(t *testing.T) {
	g := graph()
	cases := []Step{
		{Task: 9, Exit: 0, Target: 1},  // unknown task
		{Task: 1, Exit: 3, Target: 1},  // exit out of range for task 1 (2 exits)
		{Task: 2, Exit: 1, Target: 1},  // exit out of range for task 2 (1 exit)
		{Task: 1, Exit: -2, Target: 2}, // negative non-halt exit
	}
	for i, s := range cases {
		e := NewEncoder(g)
		err := e.Append([]Step{s})
		if err == nil {
			t.Errorf("case %d (%+v): invalid step encoded", i, s)
			continue
		}
		if !errors.Is(err, ErrNotColumnar) {
			t.Errorf("case %d: error %v does not wrap ErrNotColumnar", i, err)
		}
	}
	// A halt step's task must exist too; only a graph-less encoder,
	// which checks structure alone, takes one at any address.
	if err := NewEncoder(g).Append([]Step{{Task: 9, Exit: HaltExit}}); !errors.Is(err, ErrNotColumnar) {
		t.Errorf("halt at a non-task: %v, want ErrNotColumnar", err)
	}
	if err := NewEncoder(nil).Append([]Step{{Task: 9, Exit: HaltExit}}); err != nil {
		t.Fatalf("graph-less halt step rejected: %v", err)
	}
}

// TestEncoderHaltedMeansLastStep: a finished trace is Halted exactly when
// its last step halts, and a halt can only be the last step — the rule
// the MSTC reader also enforces, which makes Halted and PredictionSteps
// O(1). BlockBuilder, whose repeat streams put a halt at the end of
// every pass, starts each batch afresh.
func TestEncoderHaltedMeansLastStep(t *testing.T) {
	halt := Step{Task: 1, Exit: HaltExit}
	step := Step{Task: 1, Exit: 0, Target: 2}
	for _, c := range []struct {
		steps []Step
		want  bool
	}{
		{nil, false},
		{[]Step{step}, false},
		{[]Step{step, halt}, true},
	} {
		e := NewEncoder(graph())
		if err := e.Append(c.steps); err != nil {
			t.Fatal(err)
		}
		if got := e.Finish().Halted(); got != c.want {
			t.Errorf("%+v: Halted = %v, want %v", c.steps, got, c.want)
		}
	}
	for _, batches := range [][][]Step{
		{{halt, step}},
		{{step, halt, step, halt}},
		{{step, halt}, {step}},
	} {
		e := NewEncoder(graph())
		var err error
		for _, b := range batches {
			if err = e.Append(b); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrNotColumnar) {
			t.Errorf("%+v: step after a halt gave %v, want ErrNotColumnar", batches, err)
		}
	}
	bb := NewBlockBuilder(graph())
	if b, err := bb.Build([]Step{step, halt}); err != nil || b.N != 2 || b.Exits[1] != HaltExit {
		t.Fatalf("BlockBuilder ending a pass: %v, %+v", err, b)
	}
	if b, err := bb.Build([]Step{step}); err != nil || b.N != 1 {
		t.Fatalf("BlockBuilder starting the next pass: %v, %+v", err, b)
	}
}

// TestFromTraceRejectsMidStreamHalt: a trace with a halt before its last
// step is not columnar-encodable.
func TestFromTraceRejectsMidStreamHalt(t *testing.T) {
	tr := pingPong(3)
	tr.Steps = append(tr.Steps, tr.Steps[0])
	if _, err := FromTrace(tr); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("FromTrace with a mid-stream halt: %v, want ErrNotColumnar", err)
	}
}

// TestEncoderSnapshot: a snapshot keeps its steps and dictionary while
// the encoder appends past it, and never hands out the encoder's own
// dictionary.
func TestEncoderSnapshot(t *testing.T) {
	tr := pingPong(3000)
	e := NewEncoder(tr.Graph)
	if err := e.Append(tr.Steps[:1]); err != nil {
		t.Fatal(err)
	}
	early := e.Snapshot()
	if err := e.Append(tr.Steps[1:]); err != nil {
		t.Fatal(err)
	}
	if early.Len() != 1 || early.Dict.Len() != 2 || early.Halted() || early.shared {
		t.Fatalf("early snapshot: Len=%d dict=%d halted=%v shared=%v", early.Len(), early.Dict.Len(), early.Halted(), early.shared)
	}
	if cap(early.exits) != 1 || cap(early.Dict.Entries) != 2 {
		t.Fatal("snapshot columns are not capped at their length")
	}
	if !reflect.DeepEqual(early.Materialize().Steps, tr.Steps[:1]) {
		t.Fatal("early snapshot changed under later appends")
	}
	full := e.Finish()
	if full.Dict == e.dict || early.Dict == full.Dict {
		t.Fatal("snapshots share a *Dict")
	}
	if !reflect.DeepEqual(full.Materialize().Steps, tr.Steps) || full.PredictionSteps() != tr.PredictionSteps() {
		t.Fatal("final snapshot does not hold every step")
	}
}

func TestEncoderDictLimit(t *testing.T) {
	// A graph-free encoder interns every address it sees; feeding it more
	// than DictLimit distinct addresses must fail with ErrNotColumnar, not
	// wrap the uint16 columns.
	e := NewEncoder(nil)
	steps := make([]Step, DictLimit/2+1)
	for i := range steps {
		steps[i] = Step{Task: isa.Addr(2 * i), Exit: 0, Target: isa.Addr(2*i + 1)}
	}
	err := e.Append(steps)
	if err == nil {
		t.Fatalf("%d distinct addresses encoded past DictLimit %d", 2*len(steps), DictLimit)
	}
	if !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("dict overflow error %v does not wrap ErrNotColumnar", err)
	}
}

func TestCursorBlocks(t *testing.T) {
	c := mustColumnar(t, pingPong(5000)) // 10001 steps: 4096 + 4096 + 1809
	cur := c.Blocks()
	var ns []int
	pos := 0
	for {
		b, err := cur.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		ns = append(ns, b.N)
		// Zero-copy: the block's columns are subslices of the trace's.
		if &b.Exits[0] != &c.exits[pos] || &b.TaskIdx[0] != &c.taskIdx[pos] {
			t.Fatalf("block at %d is not a view of the trace columns", pos)
		}
		if b.Dict != c.Dict {
			t.Fatalf("block at %d does not share the dictionary", pos)
		}
		pos += b.N
	}
	if pos != c.Len() {
		t.Fatalf("cursor yielded %d steps, want %d", pos, c.Len())
	}
	want := []int{BlockSteps, BlockSteps, c.Len() - 2*BlockSteps}
	if !reflect.DeepEqual(ns, want) {
		t.Fatalf("block sizes %v, want %v", ns, want)
	}
	// A drained cursor stays drained.
	if b, err := cur.NextBlock(); b != nil || err != nil {
		t.Fatalf("drained cursor returned %v, %v", b, err)
	}
}

// colSample encodes a multi-block ping-pong trace into MSTC framing.
func colSample(t testing.TB, pairs int) (*Trace, []byte) {
	t.Helper()
	tr := pingPong(pairs)
	c := mustColumnar(t, tr)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

func TestColumnarFileRoundTrip(t *testing.T) {
	tr, raw := colSample(t, 5000)
	got, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.PredictionSteps() != tr.PredictionSteps() || !got.Halted() {
		t.Fatalf("decoded Len=%d pred=%d halted=%v", got.Len(), got.PredictionSteps(), got.Halted())
	}
	if !reflect.DeepEqual(got.Materialize().Steps, tr.Steps) {
		t.Fatal("file round trip is not lossless")
	}
	// Graph binding happened during decode: dictionary entries for task
	// addresses carry their tasks.
	if got.Dict.Entries[0].Task == nil {
		t.Fatal("decoded dictionary not bound to the graph")
	}
}

func TestWriterMatchesEncode(t *testing.T) {
	// Streaming blocks through Writer with arbitrary batch boundaries must
	// produce byte-identical output to whole-trace Encode.
	tr, want := colSample(t, 5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Steps); lo += 999 {
		hi := lo + 999
		if hi > len(tr.Steps) {
			hi = len(tr.Steps)
		}
		if err := w.Append(tr.Steps[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("Writer output differs from Encode output")
	}
	// A closed writer refuses further use.
	if err := w.Append(tr.Steps[:1]); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestReadColumnarMaxSteps(t *testing.T) {
	tr, raw := colSample(t, 5000)
	if _, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, 100); err == nil {
		t.Fatal("stream past maxSteps accepted")
	}
	if got, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, tr.Len()); err != nil || got.Len() != tr.Len() {
		t.Fatalf("exact maxSteps: %v (len %d)", err, got.Len())
	}
}

// readAll drives the block reader over raw until exhaustion or error.
func readAll(raw []byte) error {
	cr, err := NewReader(bytes.NewReader(raw), nil)
	if err != nil {
		return err
	}
	for {
		b, err := cr.NextBlock()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// haltAt frames a multi-block ping-pong trace whose steps at the given
// positions are halts: framing and CRCs are pristine, only the halt
// placement is wrong.
func haltAt(t testing.TB, pos ...int) []byte {
	t.Helper()
	steps := pingPong(5000).Steps
	for _, i := range pos {
		steps[i] = Step{Task: steps[i].Task, Exit: HaltExit}
	}
	return frameUnchecked(t, steps)
}

func TestColumnarCorruption(t *testing.T) {
	_, raw := colSample(t, 5000)
	payloadLen := int(binary.LittleEndian.Uint32(raw[16:]))

	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return b
	}

	corrupt := []struct {
		name string
		data []byte
	}{
		{"bad magic", mut(func(b []byte) { b[0] ^= 0xff })},
		{"bad version", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) })},
		{"zero blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) })},
		{"huge blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<21) })},
		{"block n over blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[20:], BlockSteps+1) })},
		{"payload over cap", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) })},
		{"payload byte flipped", mut(func(b []byte) { b[28+payloadLen/2] ^= 0xff })},
		{"halt mid-block", haltAt(t, 6)},
		{"halt ends a block that is not the last", haltAt(t, BlockSteps-1)},
	}
	for _, c := range corrupt {
		err := readAll(c.data)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", c.name, err)
		}
	}

	truncated := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"mid file header", raw[:7]},
		{"header only", raw[:16]},
		{"mid block header", raw[:20]},
		{"mid payload", raw[:28+payloadLen/2]},
		{"missing sentinel", raw[:len(raw)-12]},
		{"mid sentinel", raw[:len(raw)-5]},
	}
	for _, c := range truncated {
		err := readAll(c.data)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: error %v is not ErrTruncated", c.name, err)
		}
	}
}

func TestColumnarGraphInconsistencyRejected(t *testing.T) {
	// Encode structurally (nil graph) a step whose exit index is out of
	// range for its task, then decode bound to the graph: the decoder must
	// reject it even though the framing and CRC are pristine.
	e := NewEncoder(nil)
	if err := e.Append([]Step{
		{Task: 2, Exit: 2, Target: 1}, // task 2 has a single exit
		{Task: 1, Exit: HaltExit},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Finish().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadColumnar(bytes.NewReader(buf.Bytes()), graph(), 0)
	if err == nil {
		t.Fatal("graph-inconsistent exit accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

// FuzzColumnarRead drives the hardened MSTC decoder with arbitrary
// bytes, graph-less and bound to the ping-pong graph: it must return a
// trace or a typed error, never panic, and a successful parse must be
// size-consistent with the input (every step costs at least two payload
// bytes). A graph-bound decode that succeeds must re-encode through a
// graph-bound Encoder, so the reader and the encoder apply one step
// rule.
func FuzzColumnarRead(f *testing.F) {
	bound := graph()
	_, raw := colSample(f, 200)
	f.Add(raw)
	f.Add(raw[:16])
	f.Add(raw[:40])
	f.Add([]byte("MSTCgarbage"))
	f.Add([]byte{})
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[16:], 1<<30)
	f.Add(bad)
	f.Add(haltAt(f, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range []*tfg.Graph{nil, bound} {
			c, err := ReadColumnar(bytes.NewReader(data), g, 1<<20)
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			if 2*c.Len() > len(data) {
				t.Fatalf("parsed %d steps from %d bytes", c.Len(), len(data))
			}
			if g == nil {
				continue
			}
			if err := NewEncoder(g).Append(c.Materialize().Steps); err != nil {
				t.Fatalf("graph-bound decode does not re-encode: %v", err)
			}
		}
	})
}

// TestEncoderDictOrder pins the dictionary's first-appearance order when
// in-text addresses (the address-indexed table) and addresses outside
// the text (the map fallback) interleave, and for a graph-less encoder
// that has only the map: the MSTC bytes depend on that order. The graph
// keys tasks outside its 8-word text too, so every step keeps the step
// rule: a dynamic (return) exit may target any task.
func TestEncoderDictOrder(t *testing.T) {
	p := program.New()
	p.Code = make([]isa.Instr, 8)
	ret := []tfg.ExitSpec{{Kind: isa.KindReturn}}
	g := &tfg.Graph{Prog: p, Tasks: map[isa.Addr]*tfg.Task{
		1: {Start: 1, Blocks: []isa.Addr{1}, Exits: []tfg.ExitSpec{
			{Kind: isa.KindBranch, Target: 2, HasTarget: true},
			{Kind: isa.KindReturn},
		}},
		2:     {Start: 2, Blocks: []isa.Addr{2}, Exits: ret},
		100:   {Start: 100, Exits: ret},
		9999:  {Start: 9999, Exits: ret},
		70000: {Start: 70000, Exits: ret},
	}}
	g.Finalize()
	steps := []Step{
		{Task: 2, Exit: 0, Target: 100}, // 100 lies outside the 8-word text
		{Task: 1, Exit: 0, Target: 2},
		{Task: 1, Exit: 1, Target: 70000},
		{Task: 2, Exit: 0, Target: 1},
		{Task: 1, Exit: 1, Target: 100},
		{Task: 9999, Exit: HaltExit},
	}
	want := []isa.Addr{2, 100, 1, 70000, 9999}
	for name, g := range map[string]*tfg.Graph{"graph": g, "graph-less": nil} {
		for _, split := range []int{0, 3, len(steps)} {
			e := NewEncoder(g)
			if err := e.Append(steps[:split]); err != nil {
				t.Fatal(err)
			}
			if err := e.Append(steps[split:]); err != nil {
				t.Fatal(err)
			}
			c := e.Finish()
			var got []isa.Addr
			for _, ent := range c.Dict.Entries {
				got = append(got, ent.Addr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, split %d: dictionary %v, want %v", name, split, got, want)
			}
			if tr := c.Materialize(); !reflect.DeepEqual(tr.Steps, steps) {
				t.Errorf("%s, split %d: round trip %v, want %v", name, split, tr.Steps, steps)
			}
			if g != nil && c.Dict.Entries[0].Task != g.Tasks[2] {
				t.Errorf("%s: entry @2 not resolved to its task", name)
			}
		}
	}
}
