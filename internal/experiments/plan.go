package experiments

import (
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/stats"
)

// A plan is an experiment's whole evaluation grid, declared before
// anything runs: one row per rendered table row, one run per cell, laid
// out row-major in render order. Rows may differ in length.
type plan [][]engine.Run

// byWorkload builds the common plan shape: for each named workload, one
// row per template row, each cell a copy of its template with the
// workload filled in. The caller sets everything else on the templates
// (spec, mode, fault, label, budget). Several template rows interleave
// per workload, so row i renders series i % len(series).
func byWorkload(names []string, series ...[]engine.Run) plan {
	var p plan
	for _, name := range names {
		for _, tmpl := range series {
			cells := make([]engine.Run, len(tmpl))
			for j, r := range tmpl {
				r.Workload = name
				cells[j] = r
			}
			p = append(p, cells)
		}
	}
	return p
}

// replays returns one replay template per spec over cfg's trace budget.
func replays(cfg Config, specs ...string) []engine.Run {
	runs := make([]engine.Run, len(specs))
	for i, s := range specs {
		runs[i] = engine.Run{Spec: s, MaxSteps: cfg.MaxSteps}
	}
	return runs
}

// depthSpecs formats one spec per history depth 0..n-1; format holds the
// depth's one %d.
func depthSpecs(format string, n int) []string {
	specs := make([]string, n)
	for d := range specs {
		specs[d] = fmt.Sprintf(format, d)
	}
	return specs
}

// dolcSpecs renders spec over each DOLC point of a sweep.
func dolcSpecs(sweep []core.DOLC, spec func(core.DOLC) string) []string {
	specs := make([]string, len(sweep))
	for i, d := range sweep {
		specs[i] = spec(d)
	}
	return specs
}

// run executes every cell of p as one grid on cfg's pool — a batch's
// shared pool, or one opened for this call — and returns the results in
// p's shape. The first failed cell, in row-major order, comes back as
// the error.
func (p plan) run(cfg Config) ([][]engine.Result, error) {
	var runs []engine.Run
	for _, cells := range p {
		runs = append(runs, cells...)
	}
	pool := cfg.pool
	if pool == nil {
		pool = engine.NewPool(cfg.Workers, 0, 0, 0)
		defer pool.Close()
	}
	flat := pool.Execute(runs)
	for i := range flat {
		if err := flat[i].Err; err != nil {
			return nil, fmt.Errorf("experiments: %s under %s: %w",
				flat[i].Run.Workload, flat[i].Label(), err)
		}
	}
	res := make([][]engine.Result, len(p))
	for i, cells := range p {
		res[i], flat = flat[:len(cells):len(cells)], flat[len(cells):]
	}
	return res, nil
}

// row renders one table row: the label cells, then one cell per result.
func row(rs []engine.Result, cell func(*engine.Result) string, label ...string) []string {
	cells := append(make([]string, 0, len(label)+len(rs)), label...)
	for i := range rs {
		cells = append(cells, cell(&rs[i]))
	}
	return cells
}

// The per-cell formatters the experiments share.

func exitMiss(r *engine.Result) string   { return stats.Pct(r.Exit.MissRate()) }
func targetMiss(r *engine.Result) string { return stats.Pct(r.Target.MissRate()) }
func taskMiss(r *engine.Result) string   { return stats.Pct(r.Task.MissRate()) }
func ipc(r *engine.Result) string        { return stats.F2(r.Timing.IPC()) }
