// Custompredictor: extend the library with your own prediction automaton
// and your own exit predictor, then race them against the paper's
// configurations on a real workload trace.
//
// Two extensions are shown:
//
//  1. a custom automaton ("first-exit-sticky": never changes its mind —
//     a deliberately bad idea that quantifies what hysteresis buys), and
//  2. a custom ExitPredictor (a two-level tournament choosing between a
//     PATH and a PER component per task — beyond anything in the paper).
//
// Run with:
//
//	go run ./examples/custompredictor
package main

import (
	"fmt"
	"log"

	"multiscalar/internal/core"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

// sticky is a custom automaton: it adopts the first outcome it sees and
// never updates again.
type sticky struct {
	exit    int8
	trained bool
}

func (s *sticky) Predict() int { return int(s.exit) }
func (s *sticky) Update(actual int) {
	if !s.trained {
		s.exit = int8(actual)
		s.trained = true
	}
}

// tournament is a custom exit predictor: a per-task chooser (a 2-bit
// counter keyed by task address) selects between a PATH and a PER
// component, following the McFarling combining idea the paper cites.
type tournament struct {
	path    core.ExitPredictor
	per     core.ExitPredictor
	chooser map[uint32]int8 // >1 prefers path
}

func newTournament(depth int) *tournament {
	return &tournament{
		path:    core.NewIdealPath(depth, core.LEH2),
		per:     core.NewIdealPer(depth, core.LEH2),
		chooser: map[uint32]int8{},
	}
}

func (t *tournament) Name() string { return "tournament(PATH,PER)" }

func (t *tournament) PredictExit(task *tfg.Task) int {
	c, ok := t.chooser[uint32(task.Start)]
	if !ok {
		c = 2
	}
	if c >= 2 {
		return t.path.PredictExit(task)
	}
	return t.per.PredictExit(task)
}

func (t *tournament) UpdateExit(task *tfg.Task, exit int) {
	pp := t.path.PredictExit(task)
	qp := t.per.PredictExit(task)
	c, ok := t.chooser[uint32(task.Start)]
	if !ok {
		c = 2
	}
	if pp == exit && qp != exit && c < 3 {
		c++
	}
	if qp == exit && pp != exit && c > 0 {
		c--
	}
	t.chooser[uint32(task.Start)] = c
	t.path.UpdateExit(task, exit)
	t.per.UpdateExit(task, exit)
}

func (t *tournament) Reset() {
	t.path.Reset()
	t.per.Reset()
	t.chooser = map[uint32]int8{}
}

func (t *tournament) States() int { return t.path.States() + t.per.States() + len(t.chooser) }

// stickyPath wires the custom automaton into an ideal PATH predictor.
// The built-in AutomatonKinds are closed (packed transition functions
// over the tables' uint16 entries), so the example takes the leaner
// route: an ExitPredictor that maps ideal path contexts to sticky
// automata directly.
type stickyPath struct {
	depth int
	hist  core.PathHistory
	table map[core.PathKey]*sticky
}

func (s *stickyPath) Name() string { return fmt.Sprintf("sticky-PATH(d=%d)", s.depth) }
func (s *stickyPath) States() int  { return len(s.table) }
func (s *stickyPath) Reset() {
	s.hist.Reset()
	s.table = map[core.PathKey]*sticky{}
}

func (s *stickyPath) automaton(t *tfg.Task) *sticky {
	k := core.MakePathKey(&s.hist, t.Start, s.depth)
	a := s.table[k]
	if a == nil {
		a = &sticky{}
		s.table[k] = a
	}
	return a
}

func (s *stickyPath) PredictExit(t *tfg.Task) int {
	p := s.automaton(t).Predict()
	if n := t.NumExits(); p >= n && n > 0 {
		p = n - 1
	}
	return p
}

func (s *stickyPath) UpdateExit(t *tfg.Task, exit int) {
	s.automaton(t).Update(exit)
	s.hist.Push(t.Start)
}

func main() {
	w, err := workload.ByName("minilisp")
	if err != nil {
		log.Fatal(err)
	}
	trace, err := w.TraceN(800000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d dynamic tasks\n\n", w.Name, trace.Len())

	preds := []core.ExitPredictor{
		&stickyPath{depth: 7, table: map[core.PathKey]*sticky{}},
		core.NewIdealPath(7, core.LEH2),
		core.NewIdealPer(7, core.LEH2),
		newTournament(7),
	}
	fmt.Println("exit prediction over the same trace:")
	for _, res := range core.EvaluateExitAll(trace, preds) {
		fmt.Printf("  %-28s %6.2f%% misses  (%d states)\n", res.Name, 100*res.MissRate(), res.States)
	}
	fmt.Println("\nsticky shows what LEH hysteresis buys; the tournament tracks")
	fmt.Println("the better of its two components without knowing which one wins.")
}
