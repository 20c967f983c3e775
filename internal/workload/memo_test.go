package workload

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"multiscalar/internal/core"
	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// freshColumnar encodes a fresh run of g capped at n steps (0 = to
// halt), bypassing every memo: the reference a memo view must equal.
func freshColumnar(t testing.TB, g *tfg.Graph, n int) (*trace.Columnar, *functional.Machine) {
	t.Helper()
	gen := NewGenerator(g, n)
	enc := trace.NewEncoder(g)
	for {
		seg, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seg == nil {
			return enc.Finish(), gen.Machine()
		}
		if err := enc.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
}

// freshWorkload returns the named workload with its compiled program
// shared and an empty trace memo, so a test can watch one memo grow from
// nothing however many tests ran before it.
func freshWorkload(t testing.TB, name string) *Workload {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	f := &Workload{Name: w.Name, Check: w.Check, prog: g.Prog, graph: g}
	f.once.Do(func() {})
	return f
}

// replayResults runs one exit-predictor and one task-predictor replay,
// the two kernels every experiment is built from.
func replayResults(t testing.TB, c *trace.Columnar) (core.ExitResult, core.TaskResult) {
	t.Helper()
	exit, err := core.EvaluateExitBlocks(c.Blocks(),
		core.MustPathExit(core.MustDOLC(7, 5, 6, 6, 3), core.LEH2, core.PathExitOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	task, err := core.EvaluateTaskBlocks(c.Blocks(), core.NewHeaderPredictor("memo",
		core.MustPathExit(core.MustDOLC(7, 5, 6, 6, 3), core.LEH2, core.PathExitOptions{SkipSingleExit: true}),
		core.NewRAS(32), core.MustCTTB(core.MustDOLC(7, 4, 4, 5, 3))))
	if err != nil {
		t.Fatal(err)
	}
	return exit, task
}

// sameTrace fails the test unless got holds exactly want's steps and
// replays to the same results.
func sameTrace(t testing.TB, what string, got, want *trace.Columnar) {
	t.Helper()
	if got.Len() != want.Len() || got.PredictionSteps() != want.PredictionSteps() || got.Halted() != want.Halted() {
		t.Fatalf("%s: Len/PredictionSteps/Halted %d/%d/%v, want %d/%d/%v", what,
			got.Len(), got.PredictionSteps(), got.Halted(), want.Len(), want.PredictionSteps(), want.Halted())
	}
	if !reflect.DeepEqual(got.Materialize().Steps, want.Materialize().Steps) {
		t.Fatalf("%s: steps differ from a fresh run", what)
	}
	ge, gt := replayResults(t, got)
	we, wt := replayResults(t, want)
	if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gt, wt) {
		t.Fatalf("%s: replays differ from a fresh run: %+v %+v, want %+v %+v", what, ge, gt, we, wt)
	}
}

// TestMemoPrefixEquivalence is the proof of safety for serving every
// truncation from one memo: at lengths on and around segment boundaries,
// requested in ascending and in descending order (so views come both
// from growth and from an already longer memo), each view equals a
// fresh run capped at that length.
func TestMemoPrefixEquivalence(t *testing.T) {
	lengths := []int{1, trace.BlockSteps - 1, trace.BlockSteps, trace.BlockSteps + 1, 20000, 50000}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := freshWorkload(t, name).Graph()
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]*trace.Columnar{}
			for _, n := range lengths {
				want[n], _ = freshColumnar(t, g, n)
			}
			for _, order := range []string{"ascending", "descending"} {
				w := freshWorkload(t, name)
				for i := range lengths {
					n := lengths[i]
					if order == "descending" {
						n = lengths[len(lengths)-1-i]
					}
					got, _, err := w.memoized(n)
					if err != nil {
						t.Fatal(err)
					}
					sameTrace(t, order, got, want[n])
				}
			}
		})
	}
	t.Run("exprc-full", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full workload execution in -short mode")
		}
		t.Parallel()
		w, err := ByName("exprc")
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := w.Columnar()
		if err != nil {
			t.Fatal(err)
		}
		g, _ := w.Graph()
		want, m := freshColumnar(t, g, 0)
		sameTrace(t, "full", got, want)
		if stats != m.Stats() {
			t.Fatalf("memo stats %+v, want %+v", stats, m.Stats())
		}
	})
}

// TestMemoConcurrentGrowth races requests for interleaved, increasing
// lengths against replays of views handed out earlier. Growth must
// never write through to a published view, and each program must be
// simulated exactly once however many requests grow its memo.
func TestMemoConcurrentGrowth(t *testing.T) {
	const goroutines, rounds, stride = 4, 5, 800
	type held struct {
		c   *trace.Columnar
		sum uint64
	}
	var memos []*Workload
	for _, name := range Names() {
		memos = append(memos, freshWorkload(t, name))
	}
	before := Simulations()
	views := make([][]held, len(memos)*goroutines)
	var wg sync.WaitGroup
	for wi, w := range memos {
		for gi := 0; gi < goroutines; gi++ {
			wi, w, gi := wi, w, gi
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []held
				for r := 0; r < rounds; r++ {
					n := (r*goroutines+gi+1)*stride + gi
					c, _, err := w.memoized(n)
					if err != nil {
						t.Error(err)
						return
					}
					if c.Len() != n {
						t.Errorf("%s: view of %d steps, want %d", w.Name, c.Len(), n)
						return
					}
					mine = append(mine, held{c, fault.Checksum(c)})
					// Replay an earlier view while other goroutines grow
					// the memo under it.
					if h := mine[len(mine)/2]; fault.Checksum(h.c) != h.sum {
						t.Errorf("%s: a %d-step view changed during growth", w.Name, h.c.Len())
					}
				}
				views[wi*goroutines+gi] = mine
			}()
		}
	}
	wg.Wait()
	if n := Simulations() - before; n != int64(len(memos)) {
		t.Fatalf("%d programs grown concurrently ran %d simulations, want one each", len(memos), n)
	}
	for wi, w := range memos {
		final, _, err := w.memoized(goroutines * rounds * stride * 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, mine := range views[wi*goroutines : (wi+1)*goroutines] {
			for _, h := range mine {
				if got := fault.Checksum(h.c); got != h.sum || got != fault.Checksum(final.Prefix(h.c.Len())) {
					t.Fatalf("%s: the %d-step view changed after all growth", w.Name, h.c.Len())
				}
			}
		}
	}
}

// TestMemoMemoryBounded: requests at many distinct truncations of one
// program hold one trace, at the longest length asked for plus at most
// one generation segment, not one trace per truncation. The trace-cache
// gauge only moves on growth, so the bound holds whatever ran before.
func TestMemoMemoryBounded(t *testing.T) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true)
	lengths := []int{3000, 9000, 15000, 21000, 30000, 40000, 50000, 60000}
	bytes0, sims0 := obsCacheBytes.Value(), Simulations()
	var longest *trace.Columnar
	for _, n := range lengths {
		c, err := CachedColumnar("calcsheet", n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != n {
			t.Fatalf("view of %d steps, want %d", c.Len(), n)
		}
		longest = c
	}
	const header = 128
	steps := lengths[len(lengths)-1] + trace.BlockSteps
	bound := header + longest.Dict.Len()*int(unsafe.Sizeof(trace.DictEntry{})) + 5*steps
	if grew := int(obsCacheBytes.Value() - bytes0); grew > bound {
		t.Fatalf("%d truncations grew the trace cache by %d bytes, over one %d-step trace (%d bytes)",
			len(lengths), grew, steps, bound)
	}
	if n := Simulations() - sims0; n > 1 {
		t.Fatalf("%d truncations ran %d simulations, want at most 1", len(lengths), n)
	}
}

// TestMemoTimingConcurrentGrowth runs the timing model over memo
// prefixes and over whole published states while another goroutine
// grows the same memo past them. The branch column keeps the memo's
// immutable-snapshot rule: growth never rewrites a word a published
// view holds (under -race, a rewrite of the partial last word that a
// whole state's run reads is a reported race), so every run, during
// growth or after it, equals a run of its own fresh interpretation.
func TestMemoTimingConcurrentGrowth(t *testing.T) {
	const rounds, stride = 4, 2500
	w := freshWorkload(t, "boolmin")
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		c    *trace.Columnar
		bits functional.BranchBits
		res  timing.Result
	}
	var runs []run
	grow, grown := make(chan int), make(chan struct{})
	go func() {
		defer close(grown)
		for n := range grow {
			if _, _, err := w.memoized(n); err != nil {
				t.Error(err)
			}
		}
	}()
	for r := 1; r <= rounds; r++ {
		c, s, err := w.memoized(r * stride)
		if err != nil {
			t.Fatal(err)
		}
		grow <- s.c.Len() + trace.BlockSteps // grows while the runs below read s
		for _, view := range []*trace.Columnar{c, s.c} {
			res, err := timing.RunTrace(view, s.br, nil, timing.Config{})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{view, s.br, res})
		}
	}
	close(grow)
	<-grown
	want := map[int]timing.Result{}
	for _, r := range runs {
		n := r.c.Len()
		if _, ok := want[n]; !ok {
			if want[n], err = timing.Run(g, nil, timing.Config{MaxSteps: n}); err != nil {
				t.Fatal(err)
			}
		}
		if r.res != want[n] {
			t.Fatalf("%d-task run during growth: %+v, want %+v", n, r.res, want[n])
		}
		again, err := timing.RunTrace(r.c, r.bits, nil, timing.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if again != want[n] {
			t.Fatalf("%d-task view changed after growth: %+v, want %+v", n, again, want[n])
		}
	}
}
