// Package workload defines the five benchmark programs used throughout
// the reproduction — MSL analogs of the paper's SPEC92 integer suite —
// and caches their compiled programs, task flow graphs, and dynamic task
// traces.
//
// Each analog is written to reproduce the *structural* properties of its
// paper counterpart that drive task-prediction behaviour: task working-set
// size (Table 2), exits-per-task mix (Figure 3), and exit-type mix
// (Figure 4). See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multiscalar/internal/msl"
	"multiscalar/internal/obs"
	"multiscalar/internal/program"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Trace-cache metrics: how often the process-level memoization absorbs a
// replay (hits) versus pays a functional simulation (misses, with the
// decode/simulation time in the histogram). Off the results path — the
// cached traces themselves are identical either way.
var (
	obsCacheHits   = obs.Default().Counter("workload.trace_cache.hits")
	obsCacheMisses = obs.Default().Counter("workload.trace_cache.misses")
	obsDecodeSecs  = obs.Default().Histogram("workload.trace_cache.decode_seconds", nil)
)

// simulations counts functional-simulator executions process-wide,
// unconditionally (not obs-gated): concurrency tests assert singleflight
// behaviour against it — M concurrent demands for the same trace must
// move this by exactly one.
var simulations atomic.Int64

// Simulations returns how many functional simulations this process has
// run (full traces and truncations both count).
func Simulations() int64 { return simulations.Load() }

// Workload is one benchmark program.
type Workload struct {
	// Name is the workload's short name (e.g. "exprc").
	Name string
	// Analog names the paper benchmark this workload stands in for.
	Analog string
	// Description summarizes what the program computes.
	Description string
	// Source is the MSL source text.
	Source string
	// Check, if non-nil, verifies the program's computed outputs after a
	// full run (a self-test that the workload is executing correctly).
	Check func(m *functional.Machine, p *program.Program) error

	once  sync.Once
	prog  *program.Program
	graph *tfg.Graph
	err   error

	// colOnce memoizes the columnar full trace — the primitive encoding
	// every other trace view derives from (see columnar.go).
	colOnce  sync.Once
	col      *trace.Columnar
	colStats functional.Stats
	colErr   error
	// fullCol mirrors the memoized full columnar trace for lock-free
	// clamp/prefix checks outside colOnce.
	fullCol atomic.Pointer[trace.Columnar]
}

var (
	registryOnce sync.Once
	registry     map[string]*Workload
	order        []string
)

func initRegistry() {
	registryOnce.Do(func() {
		registry = map[string]*Workload{}
		for _, w := range []*Workload{
			newExprc(), newCompressb(), newBoolmin(), newCalcsheet(), newMinilisp(),
		} {
			registry[w.Name] = w
			order = append(order, w.Name)
		}
	})
}

// All returns the five workloads in the paper's benchmark order
// (gcc, compress, espresso, sc, xlisp analogs).
func All() []*Workload {
	initRegistry()
	ws := make([]*Workload, 0, len(order))
	for _, n := range order {
		ws = append(ws, registry[n])
	}
	return ws
}

// ByName returns a workload by short name.
func ByName(name string) (*Workload, error) {
	initRegistry()
	w, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, names)
	}
	return w, nil
}

// Names lists the workload names in canonical order.
func Names() []string {
	initRegistry()
	return append([]string(nil), order...)
}

// build compiles and partitions the workload once.
func (w *Workload) build() {
	w.once.Do(func() {
		p, err := msl.Compile(w.Source, msl.Options{})
		if err != nil {
			w.err = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		g, err := taskform.Partition(p, taskform.Options{})
		if err != nil {
			w.err = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		w.prog, w.graph = p, g
	})
}

// Program returns the compiled MSA program.
func (w *Workload) Program() (*program.Program, error) {
	w.build()
	return w.prog, w.err
}

// Graph returns the workload's task flow graph.
func (w *Workload) Graph() (*tfg.Graph, error) {
	w.build()
	return w.graph, w.err
}

// readWord fetches a named scalar from machine memory (a helper for
// workload self-checks).
func readWord(m *functional.Machine, p *program.Program, name string) (int64, error) {
	sym, ok := p.DataSymbols[name]
	if !ok {
		return 0, fmt.Errorf("no data symbol %q", name)
	}
	return m.Mem()[sym.Addr], nil
}

// expectWord asserts a named scalar's final value.
func expectWord(m *functional.Machine, p *program.Program, name string, want int64) error {
	got, err := readWord(m, p, name)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s = %d, want %d", name, got, want)
	}
	return nil
}

// expectNonzero asserts a named scalar finished non-zero (used where the
// exact checksum is recorded the first time a workload is frozen).
func expectNonzero(m *functional.Machine, p *program.Program, name string) error {
	got, err := readWord(m, p, name)
	if err != nil {
		return err
	}
	if got == 0 {
		return fmt.Errorf("%s is zero", name)
	}
	return nil
}
