package workload

import (
	"reflect"
	"sync"
	"testing"

	"multiscalar/internal/fault"
	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

func TestRegistry(t *testing.T) {
	ws := All()
	if len(ws) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(ws))
	}
	analogs := map[string]string{
		"exprc": "gcc", "compressb": "compress", "boolmin": "espresso",
		"calcsheet": "sc", "minilisp": "xlisp",
	}
	for _, w := range ws {
		if analogs[w.Name] != w.Analog {
			t.Errorf("%s: analog %q, want %q", w.Name, w.Analog, analogs[w.Name])
		}
		if _, err := ByName(w.Name); err != nil {
			t.Errorf("ByName(%s): %v", w.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("ByName(nope) should fail")
	}
}

func TestAllWorkloadsCompileAndPartition(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			g, err := w.Graph()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid TFG: %v", err)
			}
			if g.NumTasks() < 20 {
				t.Errorf("suspiciously few tasks: %d", g.NumTasks())
			}
			for _, addr := range g.Order {
				if n := g.Tasks[addr].NumExits(); n > tfg.MaxExits {
					t.Errorf("task @%d has %d exits", addr, n)
				}
			}
		})
	}
}

// TestShortTracesAreValid pins the segmented generation loop against
// one uninterrupted functional.Run: the memoized columns, a fresh capped
// generator run and the streamed blocks of a 20,000-step run (not a
// multiple of trace.BlockSteps) must all hold exactly its steps.
func TestShortTracesAreValid(t *testing.T) {
	const steps = 20000
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			g, err := w.Graph()
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := functional.Run(g, functional.Config{MaxSteps: steps})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			c, err := CachedColumnar(w.Name, steps)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			tr := c.Materialize()
			if _, err := trace.FromTrace(tr); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if tr.Len() != steps {
				t.Fatalf("trace length %d, want %d", tr.Len(), steps)
			}
			if !reflect.DeepEqual(tr.Steps, ref.Steps) {
				t.Error("CachedColumnar steps differ from the reference run")
			}
			fresh, _ := freshColumnar(t, g, steps)
			if !reflect.DeepEqual(fresh.Materialize().Steps, ref.Steps) {
				t.Error("fresh generator steps differ from the reference run")
			}
			src, err := StreamBlocks(w.Name, steps, 1)
			if err != nil {
				t.Fatal(err)
			}
			var streamed []trace.Step
			for {
				b, err := src.NextBlock()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				for i := 0; i < b.N; i++ {
					s := trace.Step{Task: b.Dict.Entries[b.TaskIdx[i]].Addr, Exit: b.Exits[i]}
					if s.Exit != trace.HaltExit {
						s.Target = b.Dict.Entries[b.TargetIdx[i]].Addr
					}
					streamed = append(streamed, s)
				}
			}
			if !reflect.DeepEqual(streamed, ref.Steps) {
				t.Errorf("streamed %d steps differ from the reference run's %d", len(streamed), len(ref.Steps))
			}
		})
	}
}

// TestFullTracesAndSelfChecks executes every workload to completion and
// runs its output self-check. This is the correctness gate for the whole
// benchmark suite (a few seconds per workload).
func TestFullTracesAndSelfChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr, stats, err := w.Columnar()
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			if !stats.Halted {
				t.Fatalf("did not halt")
			}
			if tr.Len() < 1_000_000 {
				t.Errorf("dynamic task count %d below the 1M experiments need", tr.Len())
			}
			if l := stats.InstrsPerTask(); l < 8 || l > 40 {
				t.Errorf("average task length %.1f outside the Multiscalar-plausible 8..40", l)
			}
		})
	}
}

// TestWorkingSetOrdering checks the Table 2 structural property the
// analogs were built for: compressb has a tiny distinct-task working set,
// exprc by far the largest.
func TestWorkingSetOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution in -short mode")
	}
	distinct := map[string]int{}
	for _, w := range All() {
		tr, _, err := w.Columnar()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		distinct[w.Name] = tr.DistinctTasks()
	}
	if !(distinct["compressb"] < distinct["boolmin"] &&
		distinct["boolmin"] <= distinct["calcsheet"] &&
		distinct["calcsheet"] < distinct["minilisp"] &&
		distinct["minilisp"] < distinct["exprc"]) {
		t.Errorf("working-set ordering violated: %v", distinct)
	}
	if distinct["exprc"] < 500 {
		t.Errorf("exprc working set %d too small for the saturation studies", distinct["exprc"])
	}
}

// TestExitKindCoverage checks the Figure 4 structural property: every
// workload exercises branches, calls, and returns dynamically, and the
// indirect-heavy analogs (gcc, xlisp) take indirect exits.
func TestExitKindCoverage(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := CachedColumnar(w.Name, 300000)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			kinds := tr.DynamicExitKinds()
			for _, k := range []isa.ControlKind{isa.KindBranch, isa.KindCall, isa.KindReturn} {
				if kinds[k] == 0 {
					t.Errorf("no dynamic %v exits", k)
				}
			}
			if w.Name == "exprc" || w.Name == "minilisp" {
				if kinds[isa.KindIndirectCall]+kinds[isa.KindIndirectBranch] == 0 {
					t.Errorf("indirect-heavy analog has no indirect exits")
				}
			}
		})
	}
}

// TestCachedColumnarMemoizes checks the process-level trace memo:
// repeated and concurrent demands for a program's trace share one
// simulation, and distinct truncations are distinct prefixes of it.
func TestCachedColumnarMemoizes(t *testing.T) {
	a, err := CachedColumnar("compressb", 5000)
	if err != nil {
		t.Fatal(err)
	}
	before := Simulations()
	b, err := CachedColumnar("compressb", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if n := Simulations() - before; n != 0 {
		t.Fatalf("same truncation ran %d more simulations", n)
	}
	if a.Len() != 5000 || b.Len() != 5000 {
		t.Fatalf("trace lengths %d and %d, want 5000", a.Len(), b.Len())
	}
	if fault.Checksum(a) != fault.Checksum(b) {
		t.Fatal("same truncation served different steps")
	}
	c, err := CachedColumnar("compressb", 6000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 6000 {
		t.Fatalf("distinct truncation length %d, want 6000", c.Len())
	}
	if fault.Checksum(c.Prefix(5000)) != fault.Checksum(a) {
		t.Fatal("a longer truncation does not extend the shorter one")
	}

	// Concurrent demands must also converge on the same steps and at
	// most one simulation (the memo's growth lock; -race patrols the
	// rest).
	before = Simulations()
	var wg sync.WaitGroup
	got := make([]*trace.Columnar, 8)
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := CachedColumnar("boolmin", 4321)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}()
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i].Len() != got[0].Len() || fault.Checksum(got[i]) != fault.Checksum(got[0]) {
			t.Fatalf("goroutine %d got different steps", i)
		}
	}
	if n := Simulations() - before; n > 1 {
		t.Fatalf("8 concurrent demands ran %d simulations, want at most 1", n)
	}

	if _, err := CachedColumnar("nope", 100); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestCachedColumnarOversizedClampsToFull: a cap at or beyond the full
// run's length is the full trace. It must not re-run the functional
// simulator or store a separate full-length copy per distinct cap.
func TestCachedColumnarOversizedClampsToFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution in -short mode")
	}
	huge := 1 << 30
	a, err := CachedColumnar("exprc", huge)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Halted() {
		t.Fatal("oversized cap did not run to completion")
	}
	before := Simulations()
	full, err := CachedColumnar("exprc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != a.Len() || &full.Dict.Entries[0] != &a.Dict.Entries[0] {
		t.Fatal("oversized cap stored a duplicate of the full trace")
	}
	// Distinct oversized caps — including exactly the full length — all
	// serve the one memoized trace, without simulating.
	for _, n := range []int{full.Len(), full.Len() + 1, huge, huge + 7} {
		c, err := CachedColumnar("exprc", n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != full.Len() || !c.Halted() || &c.Dict.Entries[0] != &full.Dict.Entries[0] {
			t.Fatalf("cap %d returned a different trace than the full memo", n)
		}
	}
	if n := Simulations() - before; n != 0 {
		t.Fatalf("oversized caps ran %d simulations", n)
	}
}

// TestCachedColumnarTruncationSharesBacking: once the full trace exists,
// a truncation is a prefix view of its columns and dictionary (the
// simulator is deterministic, so the capped run is exactly that prefix)
// instead of a re-simulation.
func TestCachedColumnarTruncationSharesBacking(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution in -short mode")
	}
	full, err := CachedColumnar("exprc", 0)
	if err != nil {
		t.Fatal(err)
	}
	before := Simulations()
	p, err := CachedColumnar("exprc", 1234)
	if err != nil {
		t.Fatal(err)
	}
	if n := Simulations() - before; n != 0 {
		t.Fatalf("truncation of a cached trace ran %d simulations", n)
	}
	if p.Len() != 1234 {
		t.Fatalf("truncation length %d, want 1234", p.Len())
	}
	if &p.Dict.Entries[0] != &full.Dict.Entries[0] {
		t.Fatal("truncation does not share the full trace's dictionary")
	}
	pb, _ := p.Blocks().NextBlock()
	fb, _ := full.Blocks().NextBlock()
	if &pb.TaskIdx[0] != &fb.TaskIdx[0] || &pb.Exits[0] != &fb.Exits[0] || &pb.TargetIdx[0] != &fb.TargetIdx[0] {
		t.Fatal("truncation does not share the full trace's column backing arrays")
	}
	if _, err := trace.FromTrace(p.Materialize()); err != nil {
		t.Fatalf("shared-prefix truncation does not validate: %v", err)
	}
}
