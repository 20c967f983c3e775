package workload

import (
	"fmt"
	"sync"
	"time"

	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// obsCacheBytes gauges the heap bytes held by the columnar trace cache —
// the actual resident cost of the cache layer. Materialized
// array-of-structs views are derived, transient artifacts and are not
// counted.
var obsCacheBytes = obs.Default().Gauge("workload.trace_cache.bytes")

// runColumnar executes the workload's program on a fresh machine,
// encoding the dynamic task trace segment by segment: at most
// trace.BlockSteps array-of-structs steps exist at any moment, so peak
// generation memory is the columns themselves plus one block. maxSteps
// caps the run (0 = to halt). The machine is returned for self-checks.
func runColumnar(g *tfg.Graph, maxSteps int) (*trace.Columnar, *functional.Machine, error) {
	simulations.Add(1)
	m := functional.NewMachine(g, functional.Config{})
	enc := trace.NewEncoder(g)
	for {
		chunk := trace.BlockSteps
		if maxSteps > 0 {
			if rem := maxSteps - enc.Len(); rem < chunk {
				chunk = rem
			}
		}
		if chunk <= 0 {
			break
		}
		seg, err := m.Run(functional.Config{MaxSteps: chunk})
		if err != nil {
			return nil, nil, err
		}
		if err := enc.Append(seg.Steps); err != nil {
			return nil, nil, err
		}
		if m.Stats().Halted {
			break
		}
		if len(seg.Steps) == 0 {
			return nil, nil, fmt.Errorf("workload: simulation made no progress at step %d", enc.Len())
		}
	}
	return enc.Finish(), m, nil
}

// Columnar returns the workload's full dynamic task trace in columnar
// form (computed once and cached), with the execution stats of the
// generating run. This is the primitive trace memo: Trace() materializes
// its array-of-structs view from it.
func (w *Workload) Columnar() (*trace.Columnar, functional.Stats, error) {
	w.colOnce.Do(w.fullColumnar)
	return w.col, w.colStats, w.colErr
}

// fullColumnar is the body of the full-columnar memoization: simulate to
// halt with segmented encoding, self-check, publish. Must be called
// under colOnce.
func (w *Workload) fullColumnar() {
	g, err := w.Graph()
	if err != nil {
		w.colErr = err
		return
	}
	c, m, err := runColumnar(g, 0)
	if err != nil {
		w.colErr = fmt.Errorf("workload %s: %w", w.Name, err)
		return
	}
	if !m.Stats().Halted {
		w.colErr = fmt.Errorf("workload %s: did not halt", w.Name)
		return
	}
	if w.Check != nil {
		if err := w.Check(m, g.Prog); err != nil {
			w.colErr = fmt.Errorf("workload %s: self-check failed: %w", w.Name, err)
			return
		}
	}
	w.col, w.colStats = c, m.Stats()
	w.fullCol.Store(c)
	if obs.On() {
		obsCacheBytes.Add(int64(c.Footprint()))
	}
}

// colCacheKey identifies one memoized truncated columnar trace.
type colCacheKey struct {
	name     string
	maxSteps int
}

// colCacheEntry generates its columns exactly once under concurrent
// demand.
type colCacheEntry struct {
	once sync.Once
	c    *trace.Columnar
	err  error
}

var colCache sync.Map // colCacheKey -> *colCacheEntry

// CachedColumnar returns the named workload's dynamic task trace in
// columnar form, truncated to maxSteps tasks (0 = the full trace) and
// memoized process-wide, so each (workload, truncation) pair is
// simulated at most once no matter how many experiments or concurrent
// workers replay it. The returned trace is shared: replays must treat it
// as read-only (the block kernels do; faulted runs prove it with
// checksums).
//
// A cap at or beyond the full run's length is the full trace: such
// requests clamp to the one full-columnar memo instead of simulating and
// storing a duplicate per distinct cap. Truncations requested after the
// full columns exist are prefix views sharing its column backing arrays
// and dictionary — the functional simulator is deterministic, so a
// capped run is exactly a prefix of the full run — and cost no
// simulation at all.
//
// A workload whose trace cannot be columnar-encoded (more than 64Ki
// distinct addresses) reports an error wrapping trace.ErrNotColumnar.
func CachedColumnar(name string, maxSteps int) (*trace.Columnar, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if maxSteps <= 0 {
		return w.cachedFullColumnar()
	}
	if full := w.fullCol.Load(); full != nil && maxSteps >= full.Len() {
		if obs.On() {
			obsCacheHits.Inc()
		}
		return full, nil
	}
	e, _ := colCache.LoadOrStore(colCacheKey{name: w.Name, maxSteps: maxSteps}, &colCacheEntry{})
	entry := e.(*colCacheEntry)
	generated := false
	entry.once.Do(func() {
		generated = true
		if full := w.fullCol.Load(); full != nil {
			// maxSteps < full.Len() here: a prefix view over the full
			// columns, costing no simulation and ~no memory.
			entry.c = full.Prefix(maxSteps)
			if obs.On() {
				obsCacheHits.Inc()
			}
			return
		}
		g, err := w.Graph()
		if err != nil {
			entry.err = err
			return
		}
		start := time.Now() //detlint:allow det-time (obs-gated decode timing; metrics only)
		var c *trace.Columnar
		c, _, entry.err = runColumnar(g, maxSteps)
		if obs.On() {
			obsCacheMisses.Inc()
			obsDecodeSecs.Observe(time.Since(start).Seconds())
		}
		if entry.err != nil {
			entry.err = fmt.Errorf("workload %s: %w", w.Name, entry.err)
			return
		}
		entry.c = c
		if c.Halted() {
			// The cap never bit — this IS the full trace. Alias the
			// full-columnar memo so every oversized cap shares one copy.
			if full, ferr := w.cachedFullColumnar(); ferr == nil {
				entry.c = full
				return
			}
		}
		if obs.On() {
			obsCacheBytes.Add(int64(entry.c.Footprint()))
		}
	})
	if !generated && obs.On() {
		obsCacheHits.Inc()
	}
	return entry.c, entry.err
}

// cachedFullColumnar is CachedColumnar's full-trace arm: the colOnce
// memo with cache-hit/miss accounting.
func (w *Workload) cachedFullColumnar() (*trace.Columnar, error) {
	generated := false
	w.colOnce.Do(func() {
		generated = true
		start := time.Now() //detlint:allow det-time (obs-gated decode timing; metrics only)
		w.fullColumnar()
		if obs.On() {
			obsCacheMisses.Inc()
			obsDecodeSecs.Observe(time.Since(start).Seconds())
		}
	})
	if !generated && obs.On() {
		obsCacheHits.Inc()
	}
	return w.col, w.colErr
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
	m        *functional.Machine
	maxSteps int // per-pass cap (0 = to halt)
	produced int // steps produced this pass
	passes   int // passes remaining (current one included once started)
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
		if s.m == nil {
			if s.passes <= 0 {
				return nil, nil
			}
			s.passes--
			simulations.Add(1)
			s.m = functional.NewMachine(s.g, functional.Config{})
			s.produced = 0
		}
		chunk := trace.BlockSteps
		if s.maxSteps > 0 {
			if rem := s.maxSteps - s.produced; rem < chunk {
				chunk = rem
			}
		}
		if chunk <= 0 {
			s.m = nil
			continue
		}
		seg, err := s.m.Run(functional.Config{MaxSteps: chunk})
		if err != nil {
			s.err = err
			return nil, err
		}
		if s.m.Stats().Halted {
			s.m = nil
		}
		if len(seg.Steps) == 0 {
			s.m = nil
			continue
		}
		s.produced += len(seg.Steps)
		b, err := s.bb.Build(seg.Steps)
		if err != nil {
			s.err = err
			return nil, err
		}
		return b, nil
	}
}
