package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// obsCacheBytes gauges the heap bytes held by the trace memos: each
// growth adds its footprint delta, so the gauge is the sum of the memos'
// current footprints. Prefix views and materialized array-of-structs
// views are derived, transient artifacts and are not counted.
var obsCacheBytes = obs.Default().Gauge("workload.trace_cache.bytes")

// Generator runs a program once on a fresh machine and yields its
// dynamic task trace in segments of at most trace.BlockSteps steps, so a
// consumer never holds more than one segment of array-of-structs steps.
// It is the one generation loop behind the trace memos, streamed replay
// and recorded trace files. A memo keeps its generator between growths:
// resuming one is not a new simulation.
type Generator struct {
	m        *functional.Machine
	maxSteps int // cap (0 = to halt)
	produced int
	seg      []trace.Step // reused across Next calls
}

// NewGenerator starts a run of g's program capped at maxSteps dynamic
// tasks (0 = to halt). Each generator counts as one simulation.
func NewGenerator(g *tfg.Graph, maxSteps int) *Generator {
	return newGenerator(g, maxSteps, nil)
}

// newGenerator is NewGenerator recording the run's branch column into br
// (nil: none).
func newGenerator(g *tfg.Graph, maxSteps int, br *functional.Branches) *Generator {
	simulations.Add(1)
	chunk := trace.BlockSteps
	if maxSteps > 0 {
		chunk = min(chunk, maxSteps)
	}
	return &Generator{
		m:        functional.NewMachine(g, functional.Config{Branches: br}),
		maxSteps: maxSteps,
		seg:      make([]trace.Step, 0, chunk),
	}
}

// Next returns the next segment of steps, or nil once the program halted
// or the cap was reached. The segment is valid only until the next call:
// its buffer is reused. A generator is not usable after an error.
func (gen *Generator) Next() ([]trace.Step, error) {
	chunk := trace.BlockSteps
	if gen.maxSteps > 0 {
		chunk = min(chunk, gen.maxSteps-gen.produced)
	}
	if chunk <= 0 || gen.m.Stats().Halted {
		return nil, nil
	}
	seg, err := gen.m.AppendSteps(gen.seg[:0], functional.Config{MaxSteps: chunk})
	if err != nil {
		return nil, err
	}
	gen.seg = seg
	gen.produced += len(seg)
	return seg, nil
}

// Machine returns the generating machine, for execution stats and
// output self-checks.
func (gen *Generator) Machine() *functional.Machine { return gen.m }

// traceMemo is a program's one trace memo: the columns of a single
// uncapped run, grown on demand, and the run's branch column (one bit
// per executed conditional branch, about one per task), which lets the
// timing model walk each task's path without re-running the program.
// The functional simulator is deterministic, so a run capped at n steps
// is exactly the first n steps of any longer run, and every truncation
// is served as a prefix view of the one memo. Memory is bounded by one
// trace per program, at the longest length anyone asked for (plus at
// most one segment).
//
// A request covered by the published state takes no lock. Otherwise it
// takes mu, checks again, resumes the retained generator one
// trace.BlockSteps segment at a time until the columns cover it or the
// program halts, and publishes a new state. Views handed out earlier
// stay immutable: growth writes only past their capped lengths or into
// new backing arrays (see trace.Encoder.Snapshot and
// functional.Branches.Bits).
type traceMemo struct {
	state atomic.Pointer[memoState]
	mu    sync.Mutex
	gen   *Generator // nil before the first growth and after the last
	enc   *trace.Encoder
	br    *functional.Branches
}

// memoState is one published state of a traceMemo. Growth has stopped
// for good once c halted or err is set.
type memoState struct {
	c  *trace.Columnar       // the steps so far, owned by the memo
	br functional.BranchBits // the branch column of (at least) those steps
	// err is sticky. A generator or encoding error fails only requests
	// for steps past c.Len(): c holds the steps encoded before it (for a
	// generator error, the steps before its segment). A failed self-check
	// (c halted) fails only requests that reach the halt.
	err   error
	stats functional.Stats // the halted run's execution stats
}

// covers reports whether s answers a request for n steps (n <= 0: the
// whole run) without further growth.
func (s *memoState) covers(n int) bool {
	return s != nil && (n > 0 && n <= s.c.Len() || s.c.Halted() || s.err != nil)
}

// view answers a request for n steps from a state that covers it.
func (s *memoState) view(n int) (*trace.Columnar, error) {
	if s.c.Halted() && (n <= 0 || n >= s.c.Len()) {
		return s.c, s.err
	}
	if n > 0 && n <= s.c.Len() {
		return s.c.Prefix(n), nil
	}
	return nil, s.err
}

// memoized serves a request for the workload's first n dynamic tasks
// (n <= 0: the whole run) from its trace memo, growing the memo when it
// is too short. The returned state holds the branch column and, for a
// whole run, its execution stats.
func (w *Workload) memoized(n int) (*trace.Columnar, *memoState, error) {
	s := w.memo.state.Load()
	if s.covers(n) {
		if obs.On() {
			obsCacheHits.Inc()
		}
	} else {
		var err error
		if s, err = w.grow(n); err != nil {
			return nil, nil, err
		}
	}
	c, err := s.view(n)
	return c, s, err
}

// grow extends the memo until it covers n steps, then publishes and
// returns the new state. The first growth starts the generator; the
// growth that reaches the halt runs the self-check, keeps the run's
// stats and drops the generator.
func (w *Workload) grow(n int) (*memoState, error) {
	m := &w.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	if old.covers(n) { // a concurrent request grew it first
		if obs.On() {
			obsCacheHits.Inc()
		}
		return old, nil
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	if m.gen == nil {
		m.br = &functional.Branches{}
		m.gen, m.enc = newGenerator(g, 0, m.br), trace.NewEncoder(g)
	}
	start := time.Now() //detlint:allow det-time (obs-gated decode timing; metrics only)
	mach := m.gen.Machine()
	s := &memoState{}
	for !mach.Stats().Halted && (n <= 0 || m.enc.Len() < n) {
		seg, err := m.gen.Next()
		if err == nil {
			err = m.enc.Append(seg)
		}
		if err != nil {
			s.err = fmt.Errorf("workload %s: %w", w.Name, err)
			break
		}
	}
	s.c, s.br = m.enc.Snapshot(), m.br.Bits()
	if s.err == nil && s.c.Halted() {
		s.stats = mach.Stats()
		if w.Check != nil {
			if err := w.Check(mach, g.Prog); err != nil {
				s.err = fmt.Errorf("workload %s: self-check failed: %w", w.Name, err)
			}
		}
	}
	if s.err != nil || s.c.Halted() {
		m.gen, m.enc, m.br = nil, nil, nil
	}
	if obs.On() {
		obsCacheMisses.Inc()
		obsDecodeSecs.Observe(time.Since(start).Seconds())
		delta := s.c.Footprint() + s.br.Footprint()
		if old != nil {
			delta -= old.c.Footprint() + old.br.Footprint()
		}
		obsCacheBytes.Add(int64(delta))
	}
	m.state.Store(s)
	return s, nil
}

// Columnar returns the workload's full dynamic task trace in columnar
// form with the execution stats of the generating run, growing the trace
// memo to the halt on first use. A failed output self-check is reported
// here (and by every request that reaches the halt).
func (w *Workload) Columnar() (*trace.Columnar, functional.Stats, error) {
	c, s, err := w.memoized(0)
	if s == nil {
		return c, functional.Stats{}, err
	}
	return c, s.stats, err
}

// CachedColumnar returns the named workload's dynamic task trace in
// columnar form, truncated to maxSteps tasks (0 = the full trace). Every
// truncation is a prefix view of the program's one trace memo, so each
// program is simulated at most once per process no matter how many
// experiments, truncations or concurrent workers replay it. The returned
// trace is shared: replays must treat it as read-only (the block kernels
// do; faulted runs prove it with checksums).
//
// A workload whose trace cannot be columnar-encoded (more than 64Ki
// distinct addresses) reports an error wrapping trace.ErrNotColumnar.
func CachedColumnar(name string, maxSteps int) (*trace.Columnar, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	c, _, err := w.memoized(maxSteps)
	return c, err
}

// CachedBranches is CachedColumnar plus the trace memo's branch column,
// which covers the returned steps and may run past them: the input of
// timing.RunTrace. A timing run through it holds the memo to its task
// budget.
func CachedBranches(name string, maxSteps int) (*trace.Columnar, functional.BranchBits, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, functional.BranchBits{}, err
	}
	c, s, err := w.memoized(maxSteps)
	if s == nil {
		return nil, functional.BranchBits{}, err
	}
	return c, s.br, err
}

// blockStream generates a workload's trace block by block, on the fly:
// functional simulation is pipelined into replay and nothing beyond the
// current block (plus the growing dictionary) is ever resident. repeat
// lets callers synthesize streams longer than one program run — each
// pass re-executes the workload on a fresh machine, sharing the
// dictionary across passes.
type blockStream struct {
	g        *tfg.Graph
	bb       *trace.BlockBuilder
	gen      *Generator // current pass (nil between passes)
	maxSteps int        // per-pass cap (0 = to halt)
	passes   int        // passes not yet started
	err      error
}

// StreamBlocks returns a BlockSource that generates the named workload's
// dynamic task trace without materializing it: repeat back-to-back runs
// (each a fresh deterministic execution), each capped at maxSteps tasks
// (0 = to halt). The source is single-use and not safe for concurrent
// use; each replay needs its own.
func StreamBlocks(name string, maxSteps, repeat int) (trace.BlockSource, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	if repeat < 1 {
		repeat = 1
	}
	return &blockStream{g: g, bb: trace.NewBlockBuilder(g), maxSteps: maxSteps, passes: repeat}, nil
}

// NextBlock implements trace.BlockSource.
func (s *blockStream) NextBlock() (*trace.Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	for {
		if s.gen == nil {
			if s.passes <= 0 {
				return nil, nil
			}
			s.passes--
			s.gen = NewGenerator(s.g, s.maxSteps)
		}
		seg, err := s.gen.Next()
		if err != nil {
			s.err = err
			return nil, err
		}
		if seg == nil {
			s.gen = nil
			continue
		}
		b, err := s.bb.Build(seg)
		if err != nil {
			s.err = err
			return nil, err
		}
		return b, nil
	}
}
