package engine

import (
	"reflect"
	"testing"

	"multiscalar/internal/obs"
)

// testGrid is a small but heterogeneous grid: several workloads, every
// spec class, one faulted cell, and one deliberately broken cell.
func testGrid() []Run {
	var runs []Run
	for _, w := range []string{"exprc", "minilisp", "boolmin"} {
		runs = append(runs,
			Run{Workload: w, Spec: stdSpec, MaxSteps: 8000},
			Run{Workload: w, Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: 8000},
			Run{Workload: w, Spec: "cttb:d7-o4-l4-c5-f3", MaxSteps: 8000},
			Run{Workload: w, Spec: "perfect", TimingSteps: 5000},
		)
	}
	runs = append(runs,
		Run{Workload: "exprc", Spec: stdSpec, Fault: "all=0.01,seed=3", MaxSteps: 8000},
		Run{Workload: "exprc", Spec: "not-a-spec", MaxSteps: 8000},
	)
	return runs
}

// execute runs a grid on a fresh pool of the given worker count, so no
// memo outlives the call.
func execute(runs []Run, workers int) []Result {
	p := NewPool(workers, 0, 0, 0)
	defer p.Close()
	return p.Execute(runs)
}

// TestExecuteDeterministic is the scheduler's core contract: the same
// grid produces identical results at any worker count, in submission
// order. scripts/check.sh runs the package under -race, which also makes
// this a data-race probe over the shared workload cache.
func TestExecuteDeterministic(t *testing.T) {
	runs := testGrid()
	sequential := execute(runs, 1)
	if len(sequential) != len(runs) {
		t.Fatalf("got %d results for %d runs", len(sequential), len(runs))
	}
	for i, res := range sequential {
		if res.Run != runs[i] {
			t.Fatalf("result %d echoes run %+v, want %+v", i, res.Run, runs[i])
		}
	}
	for _, workers := range []int{0, 2, 8, len(runs) + 7} {
		parallel := execute(runs, workers)
		for i := range sequential {
			// Errors are compared by message and parsed specs by their
			// canonical string (two Parse calls yield distinct pointers);
			// everything else structurally.
			seq, par := sequential[i], parallel[i]
			seqErr, parErr := "", ""
			if seq.Err != nil {
				seqErr = seq.Err.Error()
			}
			if par.Err != nil {
				parErr = par.Err.Error()
			}
			if seqErr != parErr {
				t.Fatalf("workers=%d run %d: error %q vs %q", workers, i, parErr, seqErr)
			}
			seqSpec, parSpec := "", ""
			if seq.Spec != nil {
				seqSpec = seq.Spec.String()
			}
			if par.Spec != nil {
				parSpec = par.Spec.String()
			}
			if seqSpec != parSpec {
				t.Fatalf("workers=%d run %d: spec %q vs %q", workers, i, parSpec, seqSpec)
			}
			seq.Err, par.Err = nil, nil
			seq.Spec, par.Spec = nil, nil
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers=%d run %d (%s on %s): results diverge\nseq: %+v\npar: %+v",
					workers, i, runs[i].Spec, runs[i].Workload, seq, par)
			}
		}
	}
}

func TestExecuteErrorIsolation(t *testing.T) {
	results := execute(testGrid(), 4)
	var bad, good int
	for _, res := range results {
		if res.Err != nil {
			bad++
		} else {
			good++
		}
	}
	if bad != 1 {
		t.Fatalf("%d failed runs, want exactly the broken-spec cell", bad)
	}
	if good != len(results)-1 {
		t.Fatalf("only %d of %d runs succeeded", good, len(results)-1)
	}
}

func TestExecuteEmpty(t *testing.T) {
	if res := execute(nil, 8); len(res) != 0 {
		t.Fatalf("Execute(nil) returned %d results", len(res))
	}
}

// TestExecuteObserved checks the scheduler's observability hooks: with
// collection on and a tracer attached, a parallel grid emits one run
// span per cell (carrying workload/spec/worker args) and advances the
// engine counters — while the results stay exactly what an unobserved
// run produces.
func TestExecuteObserved(t *testing.T) {
	runs := testGrid()
	baseline := execute(runs, 4)

	tr := obs.NewTracer()
	obs.SetEnabled(true)
	obs.SetTracer(tr)
	defer func() {
		obs.SetEnabled(false)
		obs.SetTracer(nil)
	}()

	before := obsRunsTotal.Value()
	observed := execute(runs, 4)
	if got := obsRunsTotal.Value() - before; got != int64(len(runs)) {
		t.Errorf("engine.run.total advanced by %d, want %d", got, len(runs))
	}
	if got := tr.Len(); got != len(runs) {
		t.Errorf("tracer has %d spans, want %d", got, len(runs))
	}
	for _, ev := range tr.Events() {
		if ev.Cat != "engine" || ev.Ph != "X" {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Args["workload"] == "" || ev.Args["spec"] == "" {
			t.Fatalf("span missing workload/spec args: %+v", ev)
		}
		if ev.TID < 1 || ev.TID > 4 {
			t.Fatalf("span on lane %d, want a worker lane 1..4", ev.TID)
		}
	}
	if obsQueueWait.Count() == 0 {
		t.Error("queue-wait histogram empty after a parallel observed grid")
	}

	for i := range baseline {
		bs, os_ := "", ""
		if baseline[i].Err != nil {
			bs = baseline[i].Err.Error()
		}
		if observed[i].Err != nil {
			os_ = observed[i].Err.Error()
		}
		if bs != os_ {
			t.Fatalf("run %d: error drift under observation: %q vs %q", i, os_, bs)
		}
		b, o := baseline[i], observed[i]
		b.Err, o.Err, b.Spec, o.Spec = nil, nil, nil, nil
		if !reflect.DeepEqual(b, o) {
			t.Fatalf("run %d: results drift under observation\nbase: %+v\nobs:  %+v", i, b, o)
		}
	}
}
