package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
)

// TestPoolSubmitMatchesDo checks the pool produces exactly what a direct
// Do produces for a real (small) run.
func TestPoolSubmitMatchesDo(t *testing.T) {
	p := NewPool(2, 4, 0, 0)
	defer p.Close()

	r := Run{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: 2000}
	got, _, err := p.Submit(context.Background(), r)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := Do(r)
	if got.Err != nil || want.Err != nil {
		t.Fatalf("run errors: pool=%v direct=%v", got.Err, want.Err)
	}
	if got.Exit != want.Exit {
		t.Fatalf("pool result %+v != direct %+v", got.Exit, want.Exit)
	}
}

// TestPoolSheds fills the queue with blocked runs and checks the next
// submit is rejected immediately with ErrPoolBusy.
func TestPoolSheds(t *testing.T) {
	p := NewPool(1, 1, 0, 0) // capacity 2: one running + one queued
	defer p.Close()
	release := make(chan struct{})
	p.SetRunner(func(r Run) Result { <-release; return Result{Run: r} })

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = p.Submit(context.Background(), Run{Workload: "w"})
		}(i)
	}
	// Wait until both are admitted (capacity full).
	deadline := time.After(5 * time.Second)
	for p.Pending() != 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 2", p.Pending())
		default:
			time.Sleep(time.Millisecond)
		}
	}

	if _, _, err := p.Submit(context.Background(), Run{Workload: "w"}); !errors.Is(err, ErrPoolBusy) {
		t.Fatalf("overflow submit: err = %v, want ErrPoolBusy", err)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted submit %d: %v", i, err)
		}
	}
}

// TestPoolCancelQueued checks a context cancelled while the run is still
// queued cancels it: the submitter returns the context error and the
// worker never evaluates the run.
func TestPoolCancelQueued(t *testing.T) {
	p := NewPool(1, 1, 0, 0)
	defer p.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	ran := map[string]bool{}
	p.SetRunner(func(r Run) Result {
		mu.Lock()
		ran[r.Workload] = true
		mu.Unlock()
		<-release
		return Result{Run: r}
	})

	// Occupy the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := p.Submit(context.Background(), Run{Workload: "running"}); err != nil {
			t.Errorf("blocking submit: %v", err)
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		started := ran["running"]
		mu.Unlock()
		if started {
			break
		}
		select {
		case <-deadline:
			t.Fatal("worker never started the blocking run")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Queue a second run, then cancel it before the worker can reach it.
	ctx, cancel := context.WithCancel(context.Background())
	var qerr error
	qdone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(qdone)
		_, _, qerr = p.Submit(ctx, Run{Workload: "queued"})
	}()
	for p.Pending() != 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 2", p.Pending())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	// The worker is still blocked in the running job, so the cancelled
	// submit can only return via the cancel path; wait for it before
	// releasing the worker so the worker cannot win the CAS race.
	select {
	case <-qdone:
	case <-deadline:
		t.Fatal("cancelled submit did not return")
	}
	close(release)
	wg.Wait()

	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("cancelled submit: err = %v, want context.Canceled", qerr)
	}
	// Give the worker a moment to drain the skipped job, then check it
	// never evaluated the cancelled run.
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if ran["queued"] {
		t.Fatal("worker evaluated a run cancelled while queued")
	}
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after close, want 0", p.Pending())
	}
}

// TestPoolAbandonRunningCollects checks a context cancelled after the
// run started does not lose the computation: Submit keeps waiting and
// returns the completed result.
func TestPoolAbandonRunningCollects(t *testing.T) {
	p := NewPool(1, 0, 0, 0)
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	p.SetRunner(func(r Run) Result { close(started); <-release; return Result{Run: r} })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res Result
	var err error
	go func() {
		defer close(done)
		res, _, err = p.Submit(ctx, Run{Workload: "slow"})
	}()
	<-started
	cancel() // run already started: Submit must wait it out
	select {
	case <-done:
		t.Fatal("Submit returned before the running job completed")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-done
	if err != nil {
		t.Fatalf("Submit after abandon-collect: %v", err)
	}
	if res.Run.Workload != "slow" {
		t.Fatalf("collected result %+v, want the completed run", res.Run)
	}
}

// TestPoolWatchdog checks a hung run is abandoned with RunTimeoutError
// and the worker lane keeps serving afterwards.
func TestPoolWatchdog(t *testing.T) {
	p := NewPool(1, 1, 0, 20*time.Millisecond)
	defer p.Close()
	hang := make(chan struct{})
	defer close(hang)
	first := true
	var mu sync.Mutex
	p.SetRunner(func(r Run) Result {
		mu.Lock()
		hangThis := first
		first = false
		mu.Unlock()
		if hangThis {
			<-hang
		}
		return Result{Run: r}
	})

	_, _, err := p.Submit(context.Background(), Run{Workload: "hung"})
	var te *RunTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("hung submit: err = %v, want *RunTimeoutError", err)
	}

	res, _, err := p.Submit(context.Background(), Run{Workload: "after"})
	if err != nil {
		t.Fatalf("post-watchdog submit: %v", err)
	}
	if res.Run.Workload != "after" {
		t.Fatalf("post-watchdog result %+v", res.Run)
	}
}

// TestPoolClose checks Close drains admitted work and later submits are
// refused.
func TestPoolClose(t *testing.T) {
	p := NewPool(2, 2, 0, 0)
	p.SetRunner(func(r Run) Result { return Result{Run: r} })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), Run{Workload: "w"})
		}()
	}
	wg.Wait()
	p.Close()
	p.Close() // idempotent
	if _, _, err := p.Submit(context.Background(), Run{Workload: "late"}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close submit: err = %v, want ErrPoolClosed", err)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after close, want 0", p.Pending())
	}
}

// memoRun is a run that resolves, so the pool memoizes it.
func memoRun(steps int) Run {
	return Run{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: steps}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolMemoCoalesces: N concurrent identical submits run once — one
// miss and N-1 joins — and a later submit is a hit that carries its own
// caller's label.
func TestPoolMemoCoalesces(t *testing.T) {
	p := NewPool(2, 16, 0, 0)
	defer p.Close()
	var mu sync.Mutex
	runs := 0
	release := make(chan struct{})
	p.SetRunner(func(r Run) Result {
		mu.Lock()
		runs++
		mu.Unlock()
		<-release
		return Do(r)
	})

	const n = 8
	paths := make([]MemoPath, n)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := memoRun(2000)
			r.Label = fmt.Sprintf("caller%d", i)
			var err error
			results[i], paths[i], err = p.Submit(context.Background(), r)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, "every submit to join", func() bool { return p.MemoStats().Joins == n-1 })
	close(release)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("runner ran %d times for %d identical submits, want 1", runs, n)
	}
	misses := 0
	for i, path := range paths {
		if path == MemoMiss {
			misses++
		}
		if got := results[i].Label(); got != fmt.Sprintf("caller%d", i) {
			t.Errorf("submit %d got label %q", i, got)
		}
		if results[i].Exit != results[0].Exit {
			t.Errorf("submit %d result %+v differs from %+v", i, results[i].Exit, results[0].Exit)
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses among %v, want 1", misses, paths)
	}

	r := memoRun(2000)
	r.Label = "late"
	res, path, err := p.Submit(context.Background(), r)
	if err != nil || path != MemoHit {
		t.Fatalf("repeat submit: path %v err %v, want a hit", path, err)
	}
	if res.Label() != "late" || res.Run != r || res.Exit != results[0].Exit {
		t.Fatalf("hit returned %+v (label %q), want the caller's run and the memoized result", res.Run, res.Label())
	}
	want := MemoStats{Results: 1, Hits: 1, Joins: n - 1, Misses: 1}
	if got := p.MemoStats(); got != want {
		t.Fatalf("memo stats %+v, want %+v", got, want)
	}
}

// TestPoolMemoCancelQueued: a queued memoized job survives one of its
// waiters leaving, is cancelled and forgotten when the last one leaves,
// and a later submit of its key runs it afresh.
func TestPoolMemoCancelQueued(t *testing.T) {
	p := NewPool(1, 4, 0, 0)
	defer p.Close()
	var mu sync.Mutex
	ran := map[int]int{}
	release := make(chan struct{})
	p.SetRunner(func(r Run) Result {
		mu.Lock()
		ran[r.MaxSteps]++
		mu.Unlock()
		if r.MaxSteps == 1 {
			<-release
		}
		return Result{Run: r}
	})

	// Occupy the single worker with a different key.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		p.Submit(context.Background(), memoRun(1))
	}()
	waitFor(t, "the blocker to start", func() bool { mu.Lock(); defer mu.Unlock(); return ran[1] == 1 })

	key, err := Key(memoRun(2))
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]context.CancelFunc, 2)
	errs := make([]chan error, 2)
	for i := range ctxs {
		ctx, cancel := context.WithCancel(context.Background())
		ctxs[i], errs[i] = cancel, make(chan error, 1)
		go func(i int) {
			_, _, err := p.Submit(ctx, memoRun(2))
			errs[i] <- err
		}(i)
	}
	waitFor(t, "the second waiter to join", func() bool { return p.MemoStats().Joins == 1 })
	st, done, ok := p.Peek(key)
	if !ok {
		t.Fatal("queued job not visible to Peek")
	}

	ctxs[0]()
	if err := <-errs[0]; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: err %v, want context.Canceled", err)
	}
	if _, _, ok := p.Peek(key); !ok {
		t.Fatal("job cancelled while a waiter remained")
	}
	ctxs[1]()
	if err := <-errs[1]; !errors.Is(err, context.Canceled) {
		t.Fatalf("last waiter: err %v, want context.Canceled", err)
	}
	if _, _, ok := p.Peek(key); ok {
		t.Fatal("cancelled job still in flight")
	}
	select {
	case <-done:
	default:
		t.Fatal("a watcher of the cancelled job was never released")
	}
	if ph := st.Phase(); ph != obs.PhaseCancelled {
		t.Fatalf("cancelled job's status is %v", ph)
	}
	if n := p.Pending(); n != 1 {
		t.Fatalf("pending = %d after the cancel, want 1 (the blocker)", n)
	}

	close(release)
	<-blocked
	if _, path, err := p.Submit(context.Background(), memoRun(2)); err != nil || path != MemoMiss {
		t.Fatalf("resubmit after cancel: path %v err %v, want a fresh miss", path, err)
	}
	if ran[2] != 1 {
		t.Fatalf("cancelled key ran %d times, want once (the fresh submit)", ran[2])
	}
}

// TestPoolMemoSkipsFailures: errors, recovered panics and watchdog kills
// are never memoized, so a repeat submit runs again.
func TestPoolMemoSkipsFailures(t *testing.T) {
	p := NewPool(1, 4, 0, 30*time.Millisecond)
	defer p.Close()
	hang := make(chan struct{})
	defer close(hang)
	p.SetRunner(func(r Run) Result {
		switch r.MaxSteps {
		case 1:
			return Result{Run: r, Err: errors.New("run failed")}
		case 2:
			return Result{Run: r, Err: &fault.PanicError{Value: "boom"}}
		case 3:
			<-hang
		}
		return Result{Run: r}
	})
	for steps := 1; steps <= 3; steps++ {
		for attempt := 0; attempt < 2; attempt++ {
			res, path, err := p.Submit(context.Background(), memoRun(steps))
			if err == nil && res.Err == nil {
				t.Fatalf("steps=%d: the failing run succeeded", steps)
			}
			if path != MemoMiss {
				t.Fatalf("steps=%d attempt %d: path %v, want a miss (failures are not memoized)", steps, attempt, path)
			}
		}
	}
	if got := p.MemoStats(); got.Results != 0 || got.Misses != 6 {
		t.Fatalf("memo stats %+v, want no results and 6 misses", got)
	}
}

// TestPoolMemoEvictsFIFO: at the cap the oldest result goes first.
func TestPoolMemoEvictsFIFO(t *testing.T) {
	p := NewPool(1, 4, 2, 0)
	defer p.Close()
	p.SetRunner(func(r Run) Result { return Result{Run: r} })
	submit := func(steps int) MemoPath {
		_, path, err := p.Submit(context.Background(), memoRun(steps))
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	for steps := 1; steps <= 3; steps++ {
		submit(steps)
	}
	if got := p.MemoStats(); got.Results != 2 || got.Evictions != 1 {
		t.Fatalf("memo stats %+v, want 2 results after 1 eviction", got)
	}
	if path := submit(3); path != MemoHit {
		t.Fatalf("newest key: %v, want hit", path)
	}
	if path := submit(1); path != MemoMiss {
		t.Fatalf("oldest key: %v, want miss (evicted)", path)
	}
}

// TestExecuteDedupsGrid: a grid with duplicate cells gives the same
// results at 1 and 4 workers, matches Do cell by cell, runs each key
// once, and never sheds although the grid outgrows the pool's capacity.
func TestExecuteDedupsGrid(t *testing.T) {
	distinct := []Run{
		memoRun(3000),
		{Workload: "exprc", Spec: stdSpec, MaxSteps: 3000},
		{Workload: "exprc", Spec: "perfect", TimingSteps: 2000},
	}
	var grid []Run
	for i := 0; i < 4; i++ {
		for _, r := range distinct {
			r.Label = fmt.Sprintf("copy%d", i)
			grid = append(grid, r)
		}
	}
	var first []Result
	for _, workers := range []int{1, 4} {
		p := NewPool(workers, 0, 0, 0)
		got := p.Execute(grid)
		stats := p.MemoStats()
		p.Close()
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d cell %d: %v", workers, i, got[i].Err)
			}
			if got[i].Run != grid[i] {
				t.Fatalf("workers=%d cell %d echoes %+v", workers, i, got[i].Run)
			}
		}
		if stats.Misses != int64(len(distinct)) || stats.Hits+stats.Joins != int64(len(grid)-len(distinct)) {
			t.Fatalf("workers=%d: memo stats %+v for %d cells over %d keys", workers, stats, len(grid), len(distinct))
		}
		if first == nil {
			first = got
			for i := range got {
				want := Do(grid[i])
				if got[i].Exit != want.Exit || got[i].Task != want.Task || got[i].Timing != want.Timing {
					t.Fatalf("cell %d differs from Do", i)
				}
			}
			continue
		}
		for i := range got {
			if got[i].Exit != first[i].Exit || got[i].Task != first[i].Task || got[i].Timing != first[i].Timing {
				t.Fatalf("workers=%d cell %d differs from workers=1", workers, i)
			}
		}
	}
}
