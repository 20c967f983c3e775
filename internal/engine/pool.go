package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"multiscalar/internal/obs"
)

// The pool is the engine's one scheduler and its one run memo. It stays
// up for the life of a process (mserve) or a batch (mbench) and accepts
// runs one at a time (Submit) or as a grid (Execute). Every run resolves
// to a canonical key (Key); a run is a pure function of its key, so the
// pool answers a completed key from a bounded FIFO memo (hit), attaches
// an identical run in flight to the same job (join), and queues only the
// rest (miss). Around that it keeps the robustness behaviours a serving
// front end needs: admission (a bounded queue that sheds instead of
// growing without bound), cancellation (context-aware submits that
// cancel queued work and abandon — but never corrupt — running work),
// and a per-run watchdog (a hung run is abandoned and its worker lane
// recovered).

// ErrPoolBusy is returned by Submit when the queue is full: the caller
// should shed load (an HTTP server maps it to 429).
var ErrPoolBusy = errors.New("engine: pool queue full")

// ErrPoolClosed is returned by Submit once Close has begun.
var ErrPoolClosed = errors.New("engine: pool closed")

// DefaultMemoCap bounds a pool's memo (entries) when NewPool is given no
// cap. A result is a few hundred bytes of plain data and never goes
// stale, so the cap only bounds memory under adversarial key churn.
const DefaultMemoCap = 4096

// RunTimeoutError marks a run killed by the pool's per-run watchdog. The
// run's goroutine is abandoned (evaluation is read-only over shared
// traces, so an abandoned run cannot corrupt anything) and the worker
// lane moves on.
type RunTimeoutError struct {
	// Limit is the watchdog budget the run exceeded.
	Limit time.Duration
}

// Error implements error.
func (e *RunTimeoutError) Error() string {
	return fmt.Sprintf("engine: run exceeded the %v watchdog timeout", e.Limit)
}

// MemoPath says how Submit served a run.
type MemoPath uint8

const (
	// MemoMiss means the run was queued as a new job, or refused (see
	// Submit's error).
	MemoMiss MemoPath = iota
	// MemoJoin means an identical run was in flight and the caller
	// waited on it.
	MemoJoin
	// MemoHit means the memo held the run's result.
	MemoHit
)

// String implements fmt.Stringer: "miss", "join" or "hit".
func (m MemoPath) String() string { return [...]string{"miss", "join", "hit"}[m] }

// MemoStats is a snapshot of one pool's memo: its occupancy and the
// traffic it has served.
type MemoStats struct {
	// Results is the number of completed results held.
	Results int `json:"results"`
	// Flights is the number of memoized runs queued or running.
	Flights int `json:"flights"`
	// Hits, Joins and Misses count memoized runs by MemoPath.
	Hits   int64 `json:"hits"`
	Joins  int64 `json:"joins"`
	Misses int64 `json:"misses"`
	// Evictions counts results dropped at the cap, oldest first.
	Evictions int64 `json:"evictions"`
}

// poolJob is one admitted run. Its waiters share it: refs, started and
// the queue slot are guarded by Pool.mu, and res and err are final once
// done closes.
type poolJob struct {
	run       Run    // run.Status is the job's live status, never nil
	key       string // memo key; "" for a run that skips the memo
	refs      int
	started   bool
	submitted time.Time
	done      chan struct{}
	res       Result
	err       error // the watchdog's
}

// result is the job's outcome as the caller that submitted r sees it:
// its own Run, so its Label and Status, never another caller's.
func (j *poolJob) result(r Run) Result {
	res := j.res
	res.Run = r
	return res
}

// Pool is a persistent worker pool over engine runs with a bounded
// queue and a run memo. Results are computed by the same observed run
// path whether they come from Submit or Execute, so engine.run.* metrics,
// queue-wait histograms and span traces cover every run.
type Pool struct {
	workers    int
	capacity   int
	memoCap    int
	runTimeout time.Duration
	wg         sync.WaitGroup // worker goroutines

	mu      sync.Mutex
	work    sync.Cond  // signalled when the queue gains a job or the pool closes
	queue   []*poolJob // admitted jobs no worker has taken, oldest first
	pending int        // admitted jobs not yet finished (queued + running)
	closed  bool
	// runner is the evaluation function — a test seam so tests can
	// simulate slow or hung runs without real multi-second workloads.
	// nil means the engine default (doObserved).
	runner  func(Run) Result
	memo    map[string]Result
	order   []string // memo keys, oldest first
	flights map[string]*poolJob
	stats   MemoStats
}

// NewPool starts a pool of workers (<=0 means GOMAXPROCS) with queue extra
// admission slots beyond the in-flight runs (<0 means 0), a memo of at
// most memoCap results (<=0 means DefaultMemoCap) and an optional
// per-run watchdog (0 disables it). Close must be called to release the
// workers.
func NewPool(workers, queue, memoCap int, runTimeout time.Duration) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if memoCap <= 0 {
		memoCap = DefaultMemoCap
	}
	p := &Pool{
		workers:    workers,
		capacity:   workers + max(queue, 0),
		memoCap:    memoCap,
		runTimeout: runTimeout,
		memo:       make(map[string]Result),
		flights:    make(map[string]*poolJob),
	}
	p.work.L = &p.mu
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Capacity returns the admission cap: the most runs that can be in
// flight (queued or running) before Submit sheds.
func (p *Pool) Capacity() int { return p.capacity }

// Pending returns the number of admitted runs not yet finished. It is a
// snapshot — callers use it to derive backpressure hints (Retry-After),
// not for synchronization.
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// MemoStats returns a snapshot of the pool's memo.
func (p *Pool) MemoStats() MemoStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Results, s.Flights = len(p.memo), len(p.flights)
	return s
}

// Peek looks key up without joining, for a watcher such as a progress
// stream: it holds no reference, so it can never cancel a run that
// others wait on. For a run in flight it returns the run's live status
// and a channel closed once the run ends, the status terminal by then;
// for a memoized result, a nil status and a closed channel. found is
// false when the pool knows neither.
func (p *Pool) Peek(key string) (st *obs.RunStatus, done <-chan struct{}, found bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.memo[key]; ok {
		return nil, closedDone, true
	}
	if j, ok := p.flights[key]; ok {
		return j.run.Status, j.done, true
	}
	return nil, nil, false
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// SetRunner replaces the pool's evaluation function (nil restores the
// engine default). It exists so server tests can simulate slow, hung, or
// panicking runs deterministically; production code never calls it.
func (p *Pool) SetRunner(fn func(Run) Result) {
	p.mu.Lock()
	p.runner = fn
	p.mu.Unlock()
}

// Submit serves one run and blocks until it completes, the context is
// done, or the pool sheds it. A hit returns at once; a join or a miss
// waits on the run's job.
//
// Shedding is immediate: when the admitted runs fill the pool's
// capacity, a miss returns ErrPoolBusy without blocking, so an
// overloaded server answers "try later" in microseconds instead of
// stacking up waiters. A context that ends returns its error: the last
// waiter of a still-queued job cancels it, and a running job runs on —
// evaluation is uninterruptible by design (a tight replay loop over a
// shared read-only trace) — and stores its result in the memo for the
// next caller. A run outside the memo (one Resolve refuses) has nowhere
// to store it, so its waiter collects the result instead. A hung run is
// bounded by the watchdog. Only a queued run drives its Run.Status; a
// hit or a join leaves the caller's Status untouched.
func (p *Pool) Submit(ctx context.Context, r Run) (Result, MemoPath, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, MemoMiss, err
	}
	res, j, path, err := p.admit(r, true)
	if j == nil {
		return res, path, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		if p.leave(j) {
			return Result{}, path, ctx.Err()
		}
		<-j.done
	}
	return j.result(r), path, j.err
}

// Execute evaluates a grid of runs on the pool's workers and returns one
// Result per run, in index order. It never sheds: every cell is queued
// whatever the pool's capacity, and duplicate cells share one job or a
// memoized result. A cell the pool refuses (ErrPoolClosed) or its
// watchdog kills carries the error in its Result.
//
// Determinism is the contract: every run is self-contained (per-run
// predictors, seeded RNGs, read-only shared traces) and a memoized
// result is the one a fresh run of its key produces, so the results,
// and any output formatted from them, are byte-identical at any worker
// count. Observability (span tracing, per-run timing, queue-wait
// histograms) records alongside but never feeds back into results.
func (p *Pool) Execute(runs []Run) []Result {
	observing := obs.On()
	var gridStart time.Time
	if observing {
		gridStart = time.Now() //detlint:allow det-time (obs-gated grid wall time; metrics only)
		obsGrids.Inc()
		obsGridRuns.Add(int64(len(runs)))
		obsGridWorkers.Set(int64(p.workers))
	}
	results := make([]Result, len(runs))
	jobs := make([]*poolJob, len(runs))
	for i, r := range runs {
		var err error
		results[i], jobs[i], _, err = p.admit(r, false)
		if err != nil {
			results[i] = Result{Run: r, Err: err}
		}
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		<-j.done
		results[i] = j.result(runs[i])
		if j.err != nil {
			results[i].Err = j.err
		}
	}
	if observing {
		obsGridSecs.Observe(time.Since(gridStart).Seconds())
	}
	return results
}

// admit serves r from the memo or joins it to an identical job in
// flight, or else queues it as a new job; the caller waits on any job
// returned. shed applies the admission cap, which grids skip.
func (p *Pool) admit(r Run, shed bool) (Result, *poolJob, MemoPath, error) {
	sp, fs, mode, err := resolve(r)
	key := "" // a run Resolve refuses skips the memo
	if err == nil {
		key = memoKey(r, sp, fs, mode)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Result{}, nil, MemoMiss, ErrPoolClosed
	}
	if key != "" {
		if res, ok := p.memo[key]; ok {
			p.stats.Hits++
			obsMemoHits.Inc()
			res.Run, res.Spec = r, sp
			return res, nil, MemoHit, nil
		}
		if j, ok := p.flights[key]; ok {
			j.refs++
			p.stats.Joins++
			obsMemoJoins.Inc()
			return Result{}, j, MemoJoin, nil
		}
	}
	if shed && p.pending >= p.capacity {
		obsPoolSheds.Inc()
		return Result{}, nil, MemoMiss, ErrPoolBusy
	}
	j := &poolJob{run: r, key: key, refs: 1, done: make(chan struct{}),
		submitted: time.Now()} //detlint:allow det-time (queue-wait stamp; metrics only, never rendered)
	if j.run.Status == nil {
		// Every job gets a live status so progress watchers and the run
		// registry see it; a memoized job is labelled with its key.
		j.run.Status = obs.Runs().Start(cmp.Or(key, r.Label), r.Workload, r.Spec, mode.String())
	}
	if key != "" {
		p.flights[key] = j
		p.stats.Misses++
		obsMemoMisses.Inc()
	}
	j.run.Status.SetPhase(obs.PhaseQueued)
	p.pending++
	p.queue = append(p.queue, j)
	p.work.Signal()
	return Result{}, j, MemoMiss, nil
}

// leave drops a waiter whose context ended and reports whether it may
// return without the result. The last waiter of a still-queued
// job cancels it: the job leaves the queue and the flights under the
// same lock, so no later Submit can join a cancelled job. A started job
// runs on; a memoized one stores its result for the next caller, but a
// run outside the memo has no other home, so its waiter collects it.
func (p *Pool) leave(j *poolJob) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !j.started && j.refs == 1:
		i := slices.Index(p.queue, j) // not started: still queued
		p.queue = slices.Delete(p.queue, i, i+1)
		p.pending--
		if j.key != "" {
			delete(p.flights, j.key)
		}
		j.run.Status.Cancel()
		close(j.done) // releases progress watchers
		return true
	case j.started && j.key == "":
		return false
	}
	j.refs--
	return true
}

// worker is one pool lane: it takes queued jobs in order until the pool
// closes and its queue is empty.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.work.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		j.started = true
		runner := p.runner
		p.mu.Unlock()
		p.execute(j, id, runner)
	}
}

// execute runs one started job, with the watchdog when configured.
func (p *Pool) execute(j *poolJob, worker int, runner func(Run) Result) {
	j.run.Status.SetPhase(obs.PhaseRunning)
	do := func() Result {
		if runner != nil {
			return runner(j.run)
		}
		return doObserved(j.run, worker, j.submitted)
	}
	if p.runTimeout <= 0 {
		p.finish(j, do(), nil)
		return
	}
	ch := make(chan Result, 1)
	go func() { ch <- do() }()
	t := time.NewTimer(p.runTimeout)
	defer t.Stop()
	select {
	case res := <-ch:
		p.finish(j, res, nil)
	case <-t.C:
		// Abandon the run goroutine (it finishes into its buffered
		// channel and is collected); recover the worker lane.
		obsPoolTimeouts.Inc()
		p.finish(j, Result{}, &RunTimeoutError{Limit: p.runTimeout})
	}
}

// finish memoizes a successful result, evicting the oldest beyond the
// cap, then resolves the job's status and publishes the outcome to its
// waiters, in that order: a waiter or watcher released by done sees a
// terminal status, and a repeat submit after it is a hit.
func (p *Pool) finish(j *poolJob, res Result, err error) {
	p.mu.Lock()
	j.res, j.err = res, err
	p.pending--
	if j.key != "" {
		delete(p.flights, j.key)
		if err == nil && res.Err == nil {
			// A hit restores Run and Spec from its caller, so the memo
			// keeps neither (nor the run's status).
			res.Run, res.Spec = Run{}, nil
			p.memo[j.key] = res
			p.order = append(p.order, j.key)
			for len(p.memo) > p.memoCap {
				delete(p.memo, p.order[0])
				p.order = p.order[1:]
				p.stats.Evictions++
				obsMemoEvictions.Inc()
			}
		}
	}
	p.mu.Unlock()
	switch {
	case err != nil:
		j.run.Status.Abandon() // the watchdog's; sticky over a late completion
	case res.Err != nil:
		j.run.Status.Fail()
	default:
		j.run.Status.Finish()
	}
	close(j.done)
}

// Close stops admission and waits for every admitted run to finish (or
// be watchdog-abandoned). It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
