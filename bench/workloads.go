package main

import (
	"fmt"

	"multiscalar/internal/mserve"
	"multiscalar/internal/workload"
)

// workloadNames lists the benchmark's workloads in run order.
var workloadNames = []string{"sweep", "spec", "stream", "serve"}

// scale fixes how much work one pass of each workload does. fullScale
// is sized so that a pass of sweep, spec or stream takes about five
// seconds on a 2-core x86-64 host, and so that the tail percentile of
// each workload has at least ten cells beyond it in a 20-second run.
// The smoke test substitutes a tiny scale; there is no flag for it.
type scale struct {
	sweepSpecs  int // specs per sweep pass (each runs on every program)
	sweepSteps  int // sweep trace truncation in tasks
	specReplay  int // speculative-update replay specs per spec pass
	specSteps   int // their trace truncation
	specTiming  int // ring-model specs per spec pass
	timingSteps int // ring-model task budget
	streamSpecs int // streamed specs per stream pass
	streamSteps int // streamed tasks per cell

	serveHot    int     // cells in the serve hot set
	serveSteps  int     // truncation of hot and fresh serve cells
	serveTruncs [2]int  // range of the seeded truncations that miss the trace cache
	serveRate   float64 // open-loop arrival rate in requests per second
	serveDigest int     // open-loop answers the serve digest hashes
}

// fullScale's serve rate is a fixed share of the daemon's measured
// capacity: its closed-loop rate over two connections on the serve mix,
// a median of 992 req/s over seeds 1–10 on a 2-core x86-64 host. 230
// req/s is 23% of it.
var fullScale = scale{
	sweepSpecs: sweepSlots, sweepSteps: 1_000_000,
	specReplay: 15, specSteps: 500_000, specTiming: 5, timingSteps: 200_000,
	streamSpecs: 8, streamSteps: 1_000_000,
	serveHot: 48, serveSteps: 50_000, serveTruncs: [2]int{20_000, 80_000},
	serveRate: 230, serveDigest: 512,
}

// tailPct is the latency percentile each workload reports as
// cell_tail_ms; each has at least ten cells beyond it in a 20-second run
// at fullScale.
var tailPct = map[string]float64{"sweep": 95, "spec": 95, "stream": 80, "serve": 99}

// job is one cell of a workload pass: a validated, canonical mserve
// cell (the same unit the daemon caches) and whether it replays a
// generated-on-the-fly stream instead of the cached columns.
type job struct {
	cell   mserve.Cell
	stream bool
}

// tasks returns the dynamic tasks a job predicts or ring-simulates:
// the truncation for replay cells (every program runs longer than any
// truncation used here) and the budget for timing cells.
func (j job) tasks() int {
	if j.cell.TimingSteps > 0 {
		return j.cell.TimingSteps
	}
	return j.cell.Steps
}

// newJob validates one generated request exactly as the daemon would,
// so every cell the harness runs is canonical and buildable.
func newJob(req mserve.EvalRequest, stream bool) job {
	c, err := mserve.ValidateEvalRequest(&req)
	if err != nil {
		panic(fmt.Sprintf("bench: generated request %+v: %v", req, err))
	}
	return job{cell: c, stream: stream}
}

// jobs returns one pass of a batch workload in submission order: each
// generated spec on every program, the specs in seeded order.
func jobs(name string, seed uint64, sc scale) ([]job, error) {
	g := newSpecGen(seed)
	type gen struct {
		spec, mode string
		steps      int
		timing     int
		stream     bool
	}
	var specs []gen
	switch name {
	case "sweep":
		for i := 0; i < sc.sweepSpecs; i++ {
			specs = append(specs, gen{spec: g.sweepSpec(i), steps: sc.sweepSteps})
		}
	case "spec":
		for i := 0; i < sc.specReplay; i++ {
			specs = append(specs, gen{spec: g.specReplaySpec(i), steps: sc.specSteps})
		}
		for i := 0; i < sc.specTiming; i++ {
			specs = append(specs, gen{spec: g.timingSpec(i), mode: "timing", timing: sc.timingSteps})
		}
	case "stream":
		for i := 0; i < sc.streamSpecs; i++ {
			specs = append(specs, gen{spec: g.streamSpec(i), steps: sc.streamSteps, stream: true})
		}
	default:
		return nil, fmt.Errorf("unknown batch workload %q", name)
	}
	var out []job
	for _, k := range newRNG(seed, streamOrder).perm(len(specs)) {
		s := specs[k]
		for _, prog := range workload.Names() {
			out = append(out, newJob(mserve.EvalRequest{
				Workload: prog, Spec: s.spec, Mode: s.mode, Steps: s.steps, TimingSteps: s.timing,
			}, s.stream))
		}
	}
	return out, nil
}

// sample returns a seeded 5% sample (at least one) of [0, n), ascending.
func sample(seed uint64, n int) []int {
	picked := make([]bool, n)
	for _, i := range newRNG(seed, streamSample).perm(n)[:(n+19)/20] {
		picked[i] = true
	}
	var out []int
	for i, ok := range picked {
		if ok {
			out = append(out, i)
		}
	}
	return out
}
