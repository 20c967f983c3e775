package core

// The ideal-table reference model: the paper's alias-free predictors
// restated from their definitions, against which every production path
// over the ideal tables is checked step by step.
//
// It shares no code with those tables — not PathKey, pathReg, slotMap
// or ExitHistory.Push. A context is a string spelling out exactly what
// the paper says identifies it, and each table is a Go map from that
// string:
//
//   - GLOBAL (§5.2): the current task and the last depth exits taken by
//     any task.
//   - PER (§5.2): the current task and the last depth exits taken by
//     that task.
//   - PATH (§5.2, §6): the current task and the start addresses of the
//     depth most recent tasks.
//   - The ideal CTTB (§5.3): a target entry per PATH context, trained
//     only by the steps that train a real CTTB.
//
// Histories are cleared registers at startup (a never-written position
// reads as zero), and every address is kept whole. What the model does
// share is what defines an automaton rather than a table: AutomatonKind
// and the tie-break RNG each ideal table seeds (1 for GLOBAL, 2 for
// PER, 3 for PATH), whose draws are part of the prediction. It also
// uses the real RAS for the composed predictor's RETURN targets.

import (
	"fmt"
	"strconv"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// refShift is a cleared shift register of depth values, newest first.
type refShift []uint64

func (h refShift) shift(v uint64) {
	if len(h) > 0 {
		copy(h[1:], h)
		h[0] = v
	}
}

// refContext spells a context: the current task, then each history
// value, newest first.
func refContext(task isa.Addr, hist refShift) string {
	b := strconv.AppendUint(nil, uint64(task), 10)
	for _, v := range hist {
		b = strconv.AppendUint(append(b, ':'), v, 10)
	}
	return string(b)
}

// refExitScheme is one alias-free exit predictor: an automaton per
// context, created in the touched state on its first prediction.
type refExitScheme struct {
	scheme string // "global", "per" or "path"
	depth  int
	kind   AutomatonKind
	rng    rng
	aut    map[string]uint16

	global refShift              // exits taken by any task
	per    map[isa.Addr]refShift // exits taken by each task
	path   refShift              // start addresses of the last tasks
}

func newRefExitScheme(scheme string, depth int, kind AutomatonKind) *refExitScheme {
	seed := map[string]uint32{"global": 1, "per": 2, "path": 3}[scheme]
	return &refExitScheme{
		scheme: scheme, depth: depth, kind: kind, rng: newRNG(seed),
		aut:    map[string]uint16{},
		global: make(refShift, depth), per: map[isa.Addr]refShift{}, path: make(refShift, depth),
	}
}

func (r *refExitScheme) context(task isa.Addr) string {
	switch r.scheme {
	case "global":
		return refContext(task, r.global)
	case "per":
		h, ok := r.per[task]
		if !ok {
			h = make(refShift, r.depth)
			r.per[task] = h
		}
		return refContext(task, h)
	default:
		return refContext(task, r.path)
	}
}

// step predicts t's exit, then trains the context with the actual exit
// and shifts the step into the history. It returns the prediction,
// limited to t's exits.
func (r *refExitScheme) step(t *tfg.Task, exit int) int {
	ctx := r.context(t.Start)
	s, ok := r.aut[ctx]
	if !ok {
		s = autTouched
	}
	pred := r.kind.predict(s, &r.rng)
	r.aut[ctx] = r.kind.update(s, exit)
	switch r.scheme {
	case "global":
		r.global.shift(uint64(exit))
	case "per":
		r.per[t.Start].shift(uint64(exit))
	default:
		r.path.shift(uint64(t.Start))
	}
	if pred >= len(t.Exits) {
		pred = len(t.Exits) - 1
	}
	return pred
}

func (r *refExitScheme) contexts() int { return len(r.aut) }

// refTarget is an ideal CTTB entry: a target and its 2-bit hysteresis
// counter. A trained entry replaces its target only when the counter
// has decayed to zero and the entry misses again.
type refTarget struct {
	target isa.Addr
	ctr    int
	valid  bool
}

// refCTTB is the alias-free CTTB: a target entry per PATH context.
type refCTTB struct {
	path    refShift
	entries map[string]*refTarget
}

func newRefCTTB(depth int) *refCTTB {
	return &refCTTB{path: make(refShift, depth), entries: map[string]*refTarget{}}
}

func (b *refCTTB) lookup(task isa.Addr) (isa.Addr, bool) {
	if e, ok := b.entries[refContext(task, b.path)]; ok && e.valid {
		return e.target, true
	}
	return 0, false
}

func (b *refCTTB) train(task, actual isa.Addr) {
	ctx := refContext(task, b.path)
	e, ok := b.entries[ctx]
	if !ok {
		e = &refTarget{}
		b.entries[ctx] = e
	}
	switch {
	case !e.valid:
		*e = refTarget{target: actual, ctr: 1, valid: true}
	case e.target == actual:
		e.ctr = min(e.ctr+1, 3)
	case e.ctr == 0:
		e.target, e.ctr = actual, 1
	default:
		e.ctr--
	}
}

func (b *refCTTB) advance(task isa.Addr) { b.path.shift(uint64(task)) }

// refComposed is the header-based task predictor over the reference
// tables (§5.3): the exit predictor picks an exit; BRANCH and CALL
// exits take the header's target, RETURN exits the RAS top, indirect
// exits the CTTB.
type refComposed struct {
	exit *refExitScheme
	ras  *RAS
	buf  *refCTTB
}

// step predicts the task's exit and next-task address, then trains
// every component with the actual outcome.
func (c *refComposed) step(t *tfg.Task, exit int, target isa.Addr) (int, isa.Addr) {
	e := c.exit.step(t, exit)
	var pred isa.Addr
	switch x := t.Exits[e]; {
	case x.HasTarget:
		pred = x.Target
	case x.Kind.IsIndirect():
		pred, _ = c.buf.lookup(t.Start)
	default:
		pred, _ = c.ras.Top()
	}
	x := t.Exits[exit]
	if x.Kind.IsIndirect() {
		c.buf.train(t.Start, target)
	}
	switch {
	case x.Kind.IsCall():
		c.ras.Push(x.Return)
	case x.Kind == isa.KindReturn:
		c.ras.Pop()
	}
	c.buf.advance(t.Start)
	return e, pred
}

// oneStepBlocks splits a columnar trace into single-step blocks, so a
// block kernel can be checked after every step.
func oneStepBlocks(t testing.TB, src trace.BlockSource) []trace.Block {
	var out []trace.Block
	for {
		b, err := src.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		for i := 0; i < b.N; i++ {
			out = append(out, trace.Block{N: 1, TaskIdx: b.TaskIdx[i : i+1], Exits: b.Exits[i : i+1],
				TargetIdx: b.TargetIdx[i : i+1], Dict: b.Dict})
		}
	}
}

var idealRefKinds = []AutomatonKind{LEH2, VC2Random, VC3MRU, LE}

// newIdealExit builds the production ideal predictor of a scheme.
func newIdealExit(scheme string, depth int, kind AutomatonKind) ExitPredictor {
	switch scheme {
	case "global":
		return NewIdealGlobal(depth, kind)
	case "per":
		return NewIdealPer(depth, kind)
	default:
		return NewIdealPath(depth, kind)
	}
}

// checkIdealReference replays steps through every production path over
// the ideal tables of the given depth — each exit scheme's fused step,
// as the block driver runs it, and PredictExit/UpdateExit, the ideal CTTB's block kernel and
// Lookup/Train/Advance, and the composed predictor's block kernel and
// Predict/Update — and holds each to the reference model after every
// step: the same predictions (or misses, for a block kernel) and the
// same number of contexts. It returns the first divergence.
func checkIdealReference(steps []trace.Block, depth int) error {
	schemes := []string{"global", "per", "path"}
	type exitPaths struct {
		ref          *refExitScheme
		kern, direct ExitPredictor
	}
	var ex []exitPaths
	for i, s := range schemes {
		kind := idealRefKinds[(depth+i)%len(idealRefKinds)]
		ex = append(ex, exitPaths{newRefExitScheme(s, depth, kind), newIdealExit(s, depth, kind), newIdealExit(s, depth, kind)})
	}
	refBuf, kernBuf, directBuf := newRefCTTB(depth), NewIdealCTTB(depth), NewIdealCTTB(depth)
	cs, ckind := schemes[depth%len(schemes)], idealRefKinds[depth%len(idealRefKinds)]
	refTask := &refComposed{exit: newRefExitScheme(cs, depth, ckind), ras: NewRAS(8), buf: newRefCTTB(depth)}
	mkTask := func() *HeaderPredictor {
		return NewHeaderPredictor("", newIdealExit(cs, depth, ckind), NewRAS(8), NewIdealCTTB(depth))
	}
	kernTask, directTask := mkTask(), mkTask()

	for i := range steps {
		blk := &steps[i]
		ent := &blk.Dict.Entries[blk.TaskIdx[0]]
		t, e := ent.Task, int(blk.Exits[0])
		target := blk.Dict.Entries[blk.TargetIdx[0]].Addr
		at := func(what string, got, want any) error {
			return fmt.Errorf("step %d (task @%d exit %d): %s = %v, reference %v", i, t.Start, e, what, got, want)
		}
		halt := blk.Exits[0] == trace.HaltExit

		for _, x := range ex {
			var tally Tally
			replayExitKernelSteps(x.kern.(exitKernel), blk, &tally)
			kernMiss := tally.misses
			if halt {
				continue
			}
			want := x.ref.step(t, e)
			if got := x.direct.PredictExit(t); got != want {
				return at(x.direct.Name()+" PredictExit", got, want)
			}
			x.direct.UpdateExit(t, e)
			if wantMiss := b2i(want != e); kernMiss != wantMiss {
				return at(x.kern.Name()+" block kernel misses", kernMiss, wantMiss)
			}
			for _, p := range []ExitPredictor{x.kern, x.direct} {
				if p.States() != x.ref.contexts() {
					return at(p.Name()+" States", p.States(), x.ref.contexts())
				}
			}
		}

		indirect := !halt && ent.Indirect[e]
		var bufTally Tally
		kernBuf.ReplayTargetBlock(blk, &bufTally)
		kernMiss := bufTally.misses
		if indirect {
			want, wantOK := refBuf.lookup(t.Start)
			if got, ok := directBuf.Lookup(t.Start); got != want || ok != wantOK {
				return at("ideal CTTB Lookup", fmt.Sprint(got, ok), fmt.Sprint(want, wantOK))
			}
			if wantMiss := b2i(!wantOK || want != target); kernMiss != wantMiss {
				return at("ideal CTTB block kernel misses", kernMiss, wantMiss)
			}
			refBuf.train(t.Start, target)
			directBuf.Train(t.Start, target)
		}
		refBuf.advance(t.Start)
		directBuf.Advance(t.Start)
		for _, b := range []TargetBuffer{kernBuf, directBuf} {
			if b.States() != len(refBuf.entries) {
				return at(b.Name()+" States", b.States(), len(refBuf.entries))
			}
		}

		var tally Tally
		kernTask.ReplayTaskBlock(blk, &tally)
		kern := tally.taskResult("")
		kernExitMiss, kernTargetMiss := kern.ExitMisses, kern.Misses
		if halt {
			continue
		}
		wantExit, wantTarget := refTask.step(t, e, target)
		if got := directTask.Predict(t); got != (Prediction{Exit: wantExit, Target: wantTarget}) {
			return at(directTask.Name()+" Predict", got, Prediction{Exit: wantExit, Target: wantTarget})
		}
		directTask.Update(t, Outcome{Exit: e, Target: target})
		if got, want := [2]int{kernExitMiss, kernTargetMiss}, [2]int{b2i(wantExit != e), b2i(wantTarget != target)}; got != want {
			return at(kernTask.Name()+" block kernel (exit, target) misses", got, want)
		}
		for _, p := range []*HeaderPredictor{kernTask, directTask} {
			if p.Exit().States() != refTask.exit.contexts() || p.Buffer().States() != len(refTask.buf.entries) {
				return at(p.Name()+" States", fmt.Sprint(p.Exit().States(), p.Buffer().States()),
					fmt.Sprint(refTask.exit.contexts(), len(refTask.buf.entries)))
			}
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// idealRefSteps is each workload's trace prefix for the reference check.
const idealRefSteps = 12000

// TestIdealMatchesReference holds every production path over the ideal
// tables to the reference model, step by step, at every depth the
// predictors support on every workload.
func TestIdealMatchesReference(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := workload.CachedColumnar(name, idealRefSteps)
			if err != nil {
				t.Fatal(err)
			}
			steps := oneStepBlocks(t, c.Blocks())
			for depth := 0; depth <= MaxHistoryDepth; depth++ {
				if err := checkIdealReference(steps, depth); err != nil {
					t.Errorf("depth %d: %v", depth, err)
				}
			}
		})
	}
}

// idealFuzzGraph is a small TFG whose task addresses differ only in high
// address bits (8 through 15), where a key that keeps too few bits of a
// deep history entry would alias, with every exit kind the composed
// predictor treats differently.
func idealFuzzGraph() (*tfg.Graph, []isa.Addr) {
	addrs := []isa.Addr{0x0010, 0x0110, 0x0210, 0x0810, 0x1010, 0x8010}
	g := &tfg.Graph{Tasks: map[isa.Addr]*tfg.Task{
		addrs[0]: mkTask(addrs[0], branchSpec(addrs[1]), branchSpec(addrs[2]), tfg.ExitSpec{Kind: isa.KindIndirectBranch}),
		addrs[1]: mkTask(addrs[1], branchSpec(addrs[0]),
			tfg.ExitSpec{Kind: isa.KindCall, Target: addrs[4], HasTarget: true, Return: addrs[3]}),
		addrs[2]: mkTask(addrs[2], tfg.ExitSpec{Kind: isa.KindIndirectCall, Return: addrs[3]}, branchSpec(addrs[5])),
		addrs[3]: mkTask(addrs[3], branchSpec(addrs[0])),
		addrs[4]: mkTask(addrs[4], tfg.ExitSpec{Kind: isa.KindReturn}, branchSpec(addrs[5])),
		addrs[5]: mkTask(addrs[5], tfg.ExitSpec{Kind: isa.KindReturn}, tfg.ExitSpec{Kind: isa.KindIndirectBranch},
			branchSpec(addrs[0]), branchSpec(addrs[1])),
	}}
	g.Finalize()
	return g, addrs
}

// FuzzIdealMatchesReference runs checkIdealReference over a synthetic
// task stream. Input encoding: byte 0 selects the depth (0..11); each
// later byte takes one step from the current task, its low bits
// choosing the exit and, for an exit without a header target, its high
// bits the next task.
func FuzzIdealMatchesReference(f *testing.F) {
	// At depth 11: @0x10 loops on its indirect exit, visits @0x110 once
	// and loops again, so two contexts differ only in bit 8 of the
	// 11th-oldest task.
	f.Add([]byte{11, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{11, 0, 1, 0, 0, 2, 0x40, 1, 0, 0, 0, 1, 2, 0x80, 3, 1, 0, 0})
	f.Add([]byte{3, 2, 0x21, 0, 3, 0x42, 1, 1, 0, 0, 0xa2, 1, 2, 0x63, 0, 1})
	f.Add([]byte{7, 1, 0, 1, 0, 2, 0xc2, 0x23, 0, 0, 1, 0, 1, 0x52, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		depth := int(data[0]) % (MaxHistoryDepth + 1)
		g, addrs := idealFuzzGraph()
		tr := &trace.Trace{Graph: g}
		cur := addrs[0]
		for _, b := range data[1:min(len(data), 2049)] {
			task := g.TaskAt(cur)
			exit := int(b&3) % task.NumExits()
			next := task.Exits[exit].Target
			if !task.Exits[exit].HasTarget {
				next = addrs[int(b>>2)%len(addrs)]
			}
			tr.Steps = append(tr.Steps, trace.Step{Task: cur, Exit: int8(exit), Target: next})
			cur = next
		}
		if err := checkIdealReference(oneStepBlocks(t, columnar(t, tr).Blocks()), depth); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
	})
}
