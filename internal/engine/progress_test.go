package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/obs"
)

// TestRunProgressCachedColumnar pins the progress contract on the
// block-wise cached path: the total is published up front, steps only
// grow, and a fault-free done run reports steps == total.
func TestRunProgressCachedColumnar(t *testing.T) {
	reg := obs.NewRunRegistry(4)
	st := reg.Start("cell", "boolmin", "path:d7-o5-l6-c6-f3:leh2", "exit")

	const steps = 9000
	r := Run{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: steps, Status: st}

	var sampler sync.WaitGroup
	stop := make(chan struct{})
	var sawDecrease bool
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		prev := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := st.Steps(); v < prev {
				sawDecrease = true
				return
			} else {
				prev = v
			}
		}
	}()

	res := Do(r)
	st.Finish()
	close(stop)
	sampler.Wait()

	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if sawDecrease {
		t.Fatal("steps decreased mid-run")
	}
	if st.Total() != steps {
		t.Fatalf("total = %d, want %d", st.Total(), steps)
	}
	if st.Steps() != st.Total() {
		t.Fatalf("done run: steps %d != total %d", st.Steps(), st.Total())
	}
	if st.Phase() != obs.PhaseDone {
		t.Fatalf("phase = %v, want done", st.Phase())
	}
}

// TestRunProgressStreaming checks the streaming path credits the
// generated blocks and lands exactly on the requested step budget.
func TestRunProgressStreaming(t *testing.T) {
	reg := obs.NewRunRegistry(4)
	st := reg.Start("", "exprc", "path:d7-o5-l6-c6-f3:leh2", "exit")

	const steps = 12000
	res := Do(Run{Workload: "exprc", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: steps, Stream: true, Status: st})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st.Total() != steps || st.Steps() != steps {
		t.Fatalf("steps/total = %d/%d, want %d/%d", st.Steps(), st.Total(), steps, steps)
	}
}

// TestRunProgressResultUnchanged re-checks byte invariance at the
// engine layer: attaching a status must not perturb the result.
func TestRunProgressResultUnchanged(t *testing.T) {
	r := Run{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", MaxSteps: 4000}
	base := Do(r)

	reg := obs.NewRunRegistry(4)
	r.Status = reg.Start("", r.Workload, r.Spec, "exit")
	withStatus := Do(r)
	if base.Err != nil || withStatus.Err != nil {
		t.Fatal(base.Err, withStatus.Err)
	}
	if base.Exit != withStatus.Exit {
		t.Fatalf("exit result drifted under progress reporting:\nbase %+v\nwith %+v", base.Exit, withStatus.Exit)
	}
}

// TestPoolStatusLifecycle drives a status through the pool's queued →
// running → done transitions with a stubbed runner.
func TestPoolStatusLifecycle(t *testing.T) {
	p := NewPool(1, 4, 0, 0)
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	p.SetRunner(func(r Run) Result {
		once.Do(func() { close(started) })
		<-release
		return Result{Run: r}
	})

	reg := obs.NewRunRegistry(4)
	st := reg.Start("job", "w", "s", "exit")
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Submit(context.Background(), Run{Workload: "w", Status: st})
		done <- err
	}()

	<-started
	if ph := st.Phase(); ph != obs.PhaseRunning {
		t.Fatalf("phase while runner holds = %v, want running", ph)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ph := st.Phase(); ph != obs.PhaseDone {
		t.Fatalf("final phase = %v, want done", ph)
	}
}

// TestPoolStatusAbandoned checks a watchdog-killed run's status lands
// in abandoned and stays there even when the hung goroutine completes.
func TestPoolStatusAbandoned(t *testing.T) {
	p := NewPool(1, 4, 0, 30*time.Millisecond)
	defer p.Close()

	release := make(chan struct{})
	p.SetRunner(func(r Run) Result {
		<-release
		return Result{Run: r}
	})

	reg := obs.NewRunRegistry(4)
	st := reg.Start("hung", "w", "s", "exit")
	_, _, err := p.Submit(context.Background(), Run{Workload: "w", Status: st})
	var te *RunTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want RunTimeoutError", err)
	}
	if ph := st.Phase(); ph != obs.PhaseAbandoned {
		t.Fatalf("phase = %v, want abandoned", ph)
	}
	close(release) // let the orphaned goroutine finish
	time.Sleep(10 * time.Millisecond)
	if ph := st.Phase(); ph != obs.PhaseAbandoned {
		t.Fatalf("late completion overwrote abandoned: %v", ph)
	}
}

// TestPoolStatusCancelled checks a run cancelled while still queued is
// marked cancelled, not failed.
func TestPoolStatusCancelled(t *testing.T) {
	p := NewPool(1, 4, 0, 0)
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	p.SetRunner(func(r Run) Result {
		once.Do(func() { close(started) })
		<-release
		return Result{Run: r}
	})

	// First job occupies the only worker; the second sits queued.
	go p.Submit(context.Background(), Run{Workload: "blocker"})
	<-started

	reg := obs.NewRunRegistry(4)
	st := reg.Start("queued", "w", "s", "exit")
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := p.Submit(ctx, Run{Workload: "w", Status: st})
		errc <- err
	}()
	for st.Phase() != obs.PhaseQueued {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ph := st.Phase(); ph != obs.PhaseCancelled {
		t.Fatalf("phase = %v, want cancelled", ph)
	}
	close(release)
}
