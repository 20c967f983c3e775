package experiments

import (
	"fmt"
	"io"

	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/stats"
	"multiscalar/internal/workload"
)

// updateDelays are the update latencies the ablation sweeps.
var updateDelays = []int{1, 2, 4, 8}

// updateDelayPlan measures the §3.1 "Update Timing" idealization in
// two forms:
//
//   - train-lag k (realistic): the path history register advances
//     speculatively at prediction time, as hardware does, but automaton
//     training waits k tasks for the non-speculative outcome to return
//     from the execution ring;
//   - full-lag k (pessimistic): the whole update — history included —
//     waits, i.e. the sequencer predicts from a history that is k tasks
//     stale.
func updateDelayPlan(cfg Config) plan {
	specs := []string{PathSpec(Depth7Exit)}
	for _, d := range updateDelays {
		specs = append(specs, fmt.Sprintf("%s:lat%d", PathSpec(Depth7Exit), d))
	}
	for _, d := range updateDelays {
		specs = append(specs, fmt.Sprintf("%s:dlat%d", PathSpec(Depth7Exit), d))
	}
	return byWorkload(workload.Names(), replays(cfg, specs...))
}

// AblationUpdateDelay renders updateDelayPlan.
func AblationUpdateDelay(w io.Writer, cfg Config) error {
	res, err := updateDelayPlan(cfg).run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"workload", "immediate"}
	for _, d := range updateDelays {
		cols = append(cols, "train-lag "+stats.I(d))
	}
	for _, d := range updateDelays {
		cols = append(cols, "full-lag "+stats.I(d))
	}
	tbl := stats.New("Ablation — update latency (real PATH, depth 7)", cols...)
	tbl.Note = "exit miss rate; the paper idealizes immediate update (§3.1 Update Timing)"
	for _, rs := range res {
		tbl.AddRow(row(rs, exitMiss, rs[0].Run.Workload)...)
	}
	return writeTables(w, tbl)
}

// IntraTaskResult summarizes the §2.2 intra-task prediction study for
// one workload.
type IntraTaskResult struct {
	Workload string
	Branches uint64
	// Shared is the conditional-branch miss rate of one bimodal predictor
	// seeing the whole dynamic instruction stream (a scalar processor's
	// view).
	Shared float64
	// PerUnit is the miss rate when tasks round-robin over four units,
	// each with a private bimodal predictor that sees only its own tasks
	// ("the individual processing elements do not see the whole dynamic
	// instruction stream").
	PerUnit float64
}

// intraTaskConfig mirrors the timing model's intra-task predictor.
const (
	intraBimodalBits = 10
	intraUnits       = 4
)

// IntraTaskData reproduces the paper's §2.2 claim that a bimodal
// intra-task predictor "only suffers minimal accuracy loss due to
// incomplete history" when each processing unit sees only every fourth
// task.
func IntraTaskData(cfg Config) ([]IntraTaskResult, error) {
	var out []IntraTaskResult
	for _, wl := range workload.All() {
		steps := cfg.MaxSteps
		if steps == 0 {
			steps = 600000
		}
		c, bits, err := workload.CachedBranches(wl.Name, steps)
		if err != nil {
			return nil, err
		}

		type bimodal []uint8
		newTable := func() bimodal {
			t := make(bimodal, 1<<intraBimodalBits)
			for i := range t {
				t[i] = 2
			}
			return t
		}
		predictAndTrain := func(t bimodal, pc isa.Addr, taken bool) bool {
			ctr := &t[uint32(pc)&(1<<intraBimodalBits-1)]
			hit := (*ctr >= 2) == taken
			if taken {
				if *ctr < 3 {
					*ctr++
				}
			} else if *ctr > 0 {
				*ctr--
			}
			return hit
		}

		shared := newTable()
		units := make([]bimodal, intraUnits)
		for u := range units {
			units[u] = newTable()
		}
		var branches, sharedMiss, unitMiss uint64
		code := c.Graph.Prog.Code

		// Walk each task's path as the timing model does; its last
		// instruction leaves the task, so only the ones before it are
		// intra-task branches.
		walk := functional.NewWalker(c.Graph, bits)
		cur, taskIdx := c.Blocks(), 0
		for blk, _ := cur.NextBlock(); blk != nil; blk, _ = cur.NextBlock() {
			for i := 0; i < blk.N; i++ {
				path, err := walk.Task(blk.Dict.Entries[blk.TaskIdx[i]].Addr, blk.Exits[i])
				if err != nil {
					return nil, err
				}
				for _, pi := range path[:len(path)-1] {
					if code[pi.PC].Op != isa.Br {
						continue
					}
					branches++
					if !predictAndTrain(shared, pi.PC, pi.Taken) {
						sharedMiss++
					}
					if !predictAndTrain(units[taskIdx%intraUnits], pi.PC, pi.Taken) {
						unitMiss++
					}
				}
				taskIdx++
			}
		}
		res := IntraTaskResult{Workload: wl.Name, Branches: branches}
		if branches > 0 {
			res.Shared = float64(sharedMiss) / float64(branches)
			res.PerUnit = float64(unitMiss) / float64(branches)
		}
		out = append(out, res)
	}
	return out, nil
}

// IntraTask renders IntraTaskData.
func IntraTask(w io.Writer, cfg Config) error {
	data, err := IntraTaskData(cfg)
	if err != nil {
		return err
	}
	tbl := stats.New("Intra-task prediction — bimodal with complete vs per-unit history (§2.2)",
		"workload", "intra-task branches", "shared bimodal", "per-unit bimodal", "loss")
	tbl.Note = "conditional-branch miss rates inside tasks; 4 units, round-robin task assignment"
	for _, r := range data {
		loss := "-"
		if r.Shared > 0 {
			loss = stats.Pct(r.PerUnit/r.Shared - 1)
		}
		tbl.AddRow(r.Workload, stats.I(int(r.Branches)),
			stats.Pct(r.Shared), stats.Pct(r.PerUnit), loss)
	}
	return writeTables(w, tbl)
}
