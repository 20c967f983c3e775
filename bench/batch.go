package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/isa"
	"multiscalar/internal/msl"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// config is one workload measurement.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // timed phase: whole passes until this has elapsed
	traced   bool
	workers  int // closed-loop bench goroutines, or serve connections
	scale    scale
	spans    string // Chrome trace-event output path (traced runs; "" = none)
}

// report is one workload measurement's outcome.
type report struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	TailN     int                `json:"tail_n"` // cells beyond the tail percentile
	ReqPerS   float64            `json:"-"`      // serve: closed-loop requests per second
}

// setupBatch is the work a batch workload needs before its timed phase:
// compile and partition every program and, for cells replayed from the
// trace cache, simulate and encode each truncated trace.
func setupBatch(js []job) (time.Duration, error) {
	t0 := now()
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		if _, err := w.Graph(); err != nil {
			return 0, err
		}
	}
	for _, j := range js {
		if !j.stream && j.cell.Mode != engine.ModeTiming {
			if _, err := workload.CachedColumnar(j.cell.Workload, j.cell.Steps); err != nil {
				return 0, err
			}
		}
	}
	return now().Sub(t0), nil
}

// cellResult is one executed cell.
type cellResult struct {
	idx       int // submission index across passes
	ns        int64
	tasks     int
	rollbacks int
	sum       [sha256.Size]byte // SHA-256 of the rendered body
	traced    bool
	err       error
}

// dispenser hands out submission indices to the closed-loop goroutines.
// It stops only at a pass boundary, so a run always covers whole passes
// and every pass has the same mix.
type dispenser struct {
	mu       sync.Mutex
	next, n  int
	limit    int       // stop at this index (0 = use the deadline)
	deadline time.Time // stop at the first pass boundary after this
	stopped  bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, false
	}
	if d.next > 0 && d.next%d.n == 0 {
		done := !now().Before(d.deadline)
		if d.limit > 0 {
			done = d.next >= d.limit
		}
		if done {
			d.stopped = true
			return 0, false
		}
	}
	i := d.next
	d.next++
	return i, true
}

// passes is the outcome of running whole passes over a job list.
type passes struct {
	results []cellResult
	wall    time.Duration
	recs    []*recorder
}

// runPasses runs cells from `first` with `workers` closed-loop
// goroutines, each starting its next cell when the last one finishes,
// until `count` passes are done (count > 0) or the deadline has passed
// at a pass boundary. Cells for which traced(i) holds call the layers
// through runLayers with spans; the others call engine.Do.
func runPasses(js []job, workers, first, count int, deadline time.Time, traced func(int) bool, epoch time.Time) passes {
	d := &dispenser{next: first, n: len(js), deadline: deadline}
	if count > 0 {
		d.limit = first + count*len(js)
	}
	out := make([][]cellResult, workers)
	var recs []*recorder
	if traced != nil {
		for w := 0; w < workers; w++ {
			recs = append(recs, newRecorder(epoch, w))
		}
	}
	t0 := now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				var rec *recorder
				if traced != nil && traced(i) {
					rec = recs[w]
				}
				out[w] = append(out[w], runCell(js[i%len(js)], i, rec))
			}
		}(w)
	}
	wg.Wait()
	p := passes{wall: now().Sub(t0), recs: recs}
	for _, rs := range out {
		p.results = append(p.results, rs...)
	}
	return p
}

// runCell executes and renders one cell.
func runCell(j job, i int, rec *recorder) cellResult {
	r := cellResult{idx: i, tasks: j.tasks(), traced: rec != nil}
	t0 := now()
	var res engine.Result
	if rec != nil {
		res, r.err = runLayers(j, rec, int32(i))
	} else {
		run := j.cell.Run()
		run.Stream = j.stream
		res = engine.Do(run)
		r.err = res.Err
	}
	r.ns = int64(now().Sub(t0))
	if r.err != nil {
		return r
	}
	s := rec.begin("mserve.render", -1, int32(i))
	body, err := render(j.cell, res)
	rec.end(s)
	if err != nil {
		r.err = err
		return r
	}
	r.sum = sha256.Sum256(body)
	r.rollbacks = res.Exit.Rollbacks + res.Task.Rollbacks + res.Timing.Rollbacks
	return r
}

// checker accumulates the correctness gate: the first pass's per-cell
// body hashes (the digest), and every failure.
type checker struct {
	first    [][sha256.Size]byte
	have     []bool
	failed   int
	attempts int
}

func newChecker(n int) *checker {
	return &checker{first: make([][sha256.Size]byte, n), have: make([]bool, n)}
}

// add records cells in any order: a cell that errs, or renders
// differently from the first run of the same cell, fails.
func (c *checker) add(rs []cellResult, logf func(string, ...any)) {
	// Pass 1 first, so later passes compare against it whatever order
	// the goroutines finished in.
	for _, r := range rs {
		if r.err == nil && r.idx < len(c.first) {
			c.first[r.idx], c.have[r.idx] = r.sum, true
		}
	}
	for _, r := range rs {
		c.attempts++
		switch k := r.idx % len(c.first); {
		case r.err != nil:
			c.failed++
			logf("cell %d: %v", r.idx, r.err)
		case !c.have[k]:
			c.failed++
			logf("cell %d: no first-pass result to compare", r.idx)
		case r.sum != c.first[k]:
			c.failed++
			logf("cell %d: result differs from its first run", r.idx)
		}
	}
}

// digest is the SHA-256 over the first pass's per-cell body hashes, in
// submission order.
func (c *checker) digest() string {
	h := sha256.New()
	for _, s := range c.first {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crossCheck re-runs a seeded 5% sample of the pass through a second
// path and compares bytes with the first pass: replay cells toggle
// between the cached columns and a generated stream, and timing cells
// go through runLayers instead of engine.Do.
func crossCheck(cfg config, js []job, c *checker, logf func(string, ...any)) {
	for _, i := range sample(cfg.seed, len(js)) {
		j := js[i]
		var r cellResult
		if j.cell.Mode == engine.ModeTiming {
			r = runCell(j, i, newRecorder(now(), 0))
		} else {
			j.stream = !j.stream
			r = runCell(j, i, nil)
		}
		c.attempts++
		switch {
		case r.err != nil:
			c.failed++
			logf("cross-check cell %d: %v", i, r.err)
		case r.sum != c.first[i]:
			c.failed++
			logf("cross-check cell %d (%s): second path renders different bytes", i, j.cell.Key())
		}
	}
}

// measureBatch runs a sweep, spec or stream measurement in this
// process: set-up, the timed phase, then the correctness gate.
func measureBatch(cfg config, logf func(string, ...any)) (*report, error) {
	js, err := jobs(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	setup, err := setupBatch(js)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := &report{SetupS: setup.Seconds(), Metrics: map[string]float64{}}
	c := newChecker(len(js))
	if cfg.traced {
		err = tracedBatch(cfg, js, c, rep, logf)
	} else {
		untracedBatch(cfg, js, c, rep, logf)
	}
	if err != nil {
		return nil, err
	}
	crossCheck(cfg, js, c, logf)
	rep.Attempted, rep.Failed, rep.Digest = c.attempts, c.failed, c.digest()
	return rep, nil
}

// untracedBatch is the timed phase that yields the end-to-end metrics.
func untracedBatch(cfg config, js []job, c *checker, rep *report, logf func(string, ...any)) {
	cpu0, _ := usage()
	p := runPasses(js, cfg.workers, 0, 0, now().Add(secs(cfg.seconds)), nil, now())
	cpu1, rss := usage()
	c.add(p.results, logf)
	var lat []float64
	tasks := 0
	for _, r := range p.results {
		lat = append(lat, float64(r.ns))
		tasks += r.tasks
	}
	tail := quantile(lat, tailPct[cfg.workload]/100)
	for _, l := range lat {
		if l > tail {
			rep.TailN++
		}
	}
	rep.Metrics["tasks_per_s"] = float64(tasks) / p.wall.Seconds()
	rep.Metrics["cpu_ns_per_task"] = ratio(float64(cpu1-cpu0), float64(tasks))
	rep.Metrics["cell_p50_ms"] = ms(median(lat))
	rep.Metrics["cell_tail_ms"] = ms(tail)
	rep.Metrics["peak_rss_mib"] = float64(rss) / (1 << 20)
}

// tracedBatch runs pairs of passes in which every cell runs once
// through runLayers with spans and once through engine.Do, alternating
// by pass, so warm-up and mix weigh both sides equally and every traced
// decomposition is checked against engine.Do's bytes for the same cell.
// The per-layer metrics come from the spans.
func tracedBatch(cfg config, js []job, c *checker, rep *report, logf func(string, ...any)) error {
	epoch := now()
	setupRec := newRecorder(epoch, cfg.workers)
	replay := 0 // the workload's replay truncation
	for _, j := range js {
		replay = max(replay, j.cell.Steps)
	}
	footprint, steps, err := setupLayers(replay, setupRec)
	if err != nil {
		return err
	}
	m := rep.Metrics
	if m["core.loop_ns_per_step"], err = probeLoop(replay); err != nil {
		return err
	}
	m["core.dolc_index_ns"] = probeDOLC()
	var bodies [][]byte
	for _, j := range js {
		bodies = append(bodies, requestBody(j.cell))
	}
	if err := validateSpans(bodies, setupRec); err != nil {
		return err
	}

	alternate := func(i int) bool { return (i%len(js)+i/len(js))%2 == 1 }
	var untracedNs, tracedNs, busyNs, wallNs float64
	var traced []job
	recs := []*recorder{setupRec}
	cells, tasks, rollbacks := 0, 0, 0
	var ms0, ms1 runtime.MemStats
	sim0 := workload.Simulations()
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	deadline := now().Add(secs(cfg.seconds))
	for first := 0; first == 0 || now().Before(deadline); first += 2 * len(js) {
		p := runPasses(js, cfg.workers, first, 2, deadline, alternate, epoch)
		c.add(p.results, logf)
		wallNs += float64(p.wall) * float64(cfg.workers)
		for _, r := range p.results {
			busyNs += float64(r.ns)
			cells++
			tasks += r.tasks
			rollbacks += r.rollbacks
			if r.traced {
				tracedNs += float64(r.ns)
				traced = append(traced, js[r.idx%len(js)])
			} else {
				untracedNs += float64(r.ns)
			}
		}
		recs = append(recs, p.recs...)
	}
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	sims := workload.Simulations() - sim0

	if err := layerMetrics(recs, traced, steps, footprint, m); err != nil {
		return err
	}
	n := float64(cells)
	m["workload.sims_per_cell"] = ratio(float64(sims), n)
	m["engine.worker_busy_frac"] = ratio(busyNs, wallNs)
	m["core.allocs_per_cell"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), n)
	m["core.rollbacks_per_ktask"] = ratio(1000*float64(rollbacks), float64(tasks))
	m["runtime.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)
	m["bench.trace_overhead_frac"] = ratio(tracedNs, untracedNs) - 1
	if cfg.spans != "" {
		return writeSpans(cfg.spans, recs)
	}
	return nil
}

// setupLayers repeats a batch workload's set-up one layer call at a
// time — compile, partition, then simulate and encode `steps` tasks per
// program — so each layer's share of set-up is measured. It returns the
// encoded columns' total footprint and length.
func setupLayers(steps int, rec *recorder) (footprint, length int, err error) {
	for k, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		id := int32(k)
		s := rec.begin("msl.compile", -1, id)
		prog, err := msl.Compile(w.Source, msl.Options{})
		rec.end(s)
		if err != nil {
			return 0, 0, err
		}
		s = rec.begin("taskform.partition", -1, id)
		g, err := taskform.Partition(prog, taskform.Options{})
		rec.end(s)
		if err != nil {
			return 0, 0, err
		}
		col, err := encodeSteps(g, steps, rec, id)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		footprint += col.Footprint()
		length += col.Len()
	}
	return footprint, length, nil
}

// encodeSteps simulates up to steps tasks, encoding each segment as it
// comes, with a span around every simulator and encoder call.
func encodeSteps(g *tfg.Graph, steps int, rec *recorder, id int32) (*trace.Columnar, error) {
	m := functional.NewMachine(g, functional.Config{})
	enc := trace.NewEncoder(g)
	for enc.Len() < steps {
		s := rec.begin("functional.run", -1, id)
		seg, err := m.Run(functional.Config{MaxSteps: min(trace.BlockSteps, steps-enc.Len())})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("trace.encode", -1, id)
		err = enc.Append(seg.Steps)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if m.Stats().Halted || len(seg.Steps) == 0 {
			break
		}
	}
	return enc.Finish(), nil
}

// probeExit is a predictor that does no work, so replaying it measures
// the block kernel's own per-step cost.
type probeExit struct{}

func (probeExit) Name() string                  { return "probe" }
func (probeExit) PredictExit(t *tfg.Task) int   { return 0 }
func (probeExit) UpdateExit(t *tfg.Task, e int) {}
func (probeExit) Reset()                        {}
func (probeExit) States() int                   { return 0 }

// probeLoop replays the probe predictor over every program's cached
// columns and returns ns per step.
func probeLoop(steps int) (float64, error) {
	var ns, n float64
	for _, name := range workload.Names() {
		col, err := workload.CachedColumnar(name, steps)
		if err != nil {
			return 0, err
		}
		t0 := now()
		if _, err := core.EvaluateExitBlocks(col.Blocks(), probeExit{}); err != nil {
			return 0, err
		}
		ns += float64(now().Sub(t0))
		n += float64(col.PredictionSteps())
	}
	return ratio(ns, n), nil
}

// dolcSink keeps the probe's index computations live.
var dolcSink uint32

// probeDOLC times DOLC.Index, the paper's folded path index, alone.
func probeDOLC() float64 {
	const n = 1 << 20
	d := core.MustDOLC(7, 5, 6, 6, 3)
	var h core.PathHistory
	for i := 0; i < 8; i++ {
		h.Push(isa.Addr(i * 37))
	}
	t0 := now()
	for i := 0; i < n; i++ {
		dolcSink ^= d.Index(&h, isa.Addr(i))
	}
	return float64(now().Sub(t0)) / n
}

// secs converts a duration in seconds.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
