package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// FaultSweepRates is the injection-rate sweep of the graceful-degradation
// study: every fault kind enabled at the same per-step probability,
// spanning four decades from fault-free to one fault per ten tasks.
var FaultSweepRates = []float64{0, 1e-4, 1e-3, 1e-2, 1e-1}

// FaultSweepSeed pins the injection RNG so the sweep is reproducible.
const FaultSweepSeed = 0x5eed

// faultSpec renders the all-kinds injection spec for one sweep point
// ("" at rate 0 keeps the baseline cell injection-free).
func faultSpec(rate float64) string {
	if rate == 0 {
		return ""
	}
	return fmt.Sprintf("all=%g,seed=%d", rate, FaultSweepSeed)
}

// faultSweepPlan replays every workload's trace through the standard
// composed predictor under each injection rate: a row per workload, a
// column per FaultSweepRates point, the rate-0 baseline first.
func faultSweepPlan(cfg Config) plan {
	var rates []engine.Run
	for _, rate := range FaultSweepRates {
		rates = append(rates, engine.Run{Spec: StdSpec(), Fault: faultSpec(rate), MaxSteps: cfg.MaxSteps})
	}
	return byWorkload(workload.Names(), rates)
}

// faultSweepResults runs faultSweepPlan. The engine enforces the
// recovery invariants per cell (no panic, no divergence from the trace
// oracle); on top of that this asserts graceful degradation — a faulted
// run may not score meaningfully *fewer* misses than its own fault-free
// baseline, within 1% of steps of slack for lucky corruptions.
// The complement to Figures 6–8: where those show how much accuracy the
// predictor wins, this shows how gracefully it loses accuracy as its
// state decays.
func faultSweepResults(cfg Config) ([][]engine.Result, error) {
	res, err := faultSweepPlan(cfg).run(cfg)
	if err != nil {
		return nil, err
	}
	for _, rs := range res {
		base := rs[0].Task
		for j, r := range rs {
			if r.Task.Misses+r.Task.Steps/100 < base.Misses {
				return nil, fmt.Errorf(
					"experiments: fault sweep %s rate %g: faulted run scored %d misses, below fault-free baseline %d",
					r.Run.Workload, FaultSweepRates[j], r.Task.Misses, base.Misses)
			}
		}
	}
	return res, nil
}

// FaultSweep renders the graceful-degradation table: task miss rate as a
// function of the per-step fault rate, per workload.
func FaultSweep(w io.Writer, cfg Config) error {
	res, err := faultSweepResults(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload"}
	for _, r := range FaultSweepRates {
		cols = append(cols, fmt.Sprintf("rate %g", r))
	}
	tbl := stats.New("Fault sweep — task miss rate vs injection rate (all fault kinds)", cols...)
	tbl.Note = "standard predictor (exit+RAS+CTTB); faults corrupt predictor state only — accuracy degrades, execution never diverges"
	inj := stats.New("Fault sweep supplement — faults injected per run", cols...)
	injected := func(r *engine.Result) string { return stats.I(r.Injection.TotalInjected()) }
	for _, rs := range res {
		tbl.AddRow(row(rs, taskMiss, rs[0].Run.Workload)...)
		inj.AddRow(row(rs, injected, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl, inj)
}
