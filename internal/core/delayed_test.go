package core

import "testing"

func TestDelayedUpdateZeroIsTransparent(t *testing.T) {
	_, tr := synthGraph()
	plain := evalExit(t, tr, MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}))
	wrapped := evalExit(t, tr, NewDelayedUpdate(
		MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), 0))
	if plain.Misses != wrapped.Misses {
		t.Fatalf("zero-delay wrapper changed behaviour: %d vs %d", plain.Misses, wrapped.Misses)
	}
}

func TestDelayedUpdateHoldsBackTraining(t *testing.T) {
	task := mkTask(1, branchSpec(2), branchSpec(3))
	inner := NewIdealPath(0, LE)
	d := NewDelayedUpdate(inner, 3)
	// Three updates fit in the queue: the inner predictor stays cold.
	for i := 0; i < 3; i++ {
		d.UpdateExit(task, 1)
	}
	if got := inner.PredictExit(task); got != 0 {
		t.Fatalf("inner predictor trained too early (predicts %d)", got)
	}
	// The fourth update releases the first.
	d.UpdateExit(task, 1)
	if got := inner.PredictExit(task); got != 1 {
		t.Fatalf("inner predictor not trained after drain (predicts %d)", got)
	}
}

func TestDelayedUpdateResetClearsQueue(t *testing.T) {
	task := mkTask(1, branchSpec(2), branchSpec(3))
	inner := NewIdealPath(0, LE)
	d := NewDelayedUpdate(inner, 2)
	d.UpdateExit(task, 1)
	d.Reset()
	d.UpdateExit(task, 0)
	d.UpdateExit(task, 0)
	d.UpdateExit(task, 0) // releases the first post-reset update (exit 0)
	if got := inner.PredictExit(task); got != 0 {
		t.Fatalf("stale queued update survived Reset (predicts %d)", got)
	}
}

func TestTrainLatencyPreservesHistoryAdvance(t *testing.T) {
	// With speculative history advance, a small training latency must
	// cost almost nothing on a learnable pattern — the property the
	// ablation demonstrates at scale.
	_, tr := synthGraph()
	immediate := evalExit(t, tr, MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2,
		PathExitOptions{}))
	lagged := evalExit(t, tr, MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2,
		PathExitOptions{TrainLatency: 4}))
	fullLag := evalExit(t, tr, NewDelayedUpdate(
		MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), 4))
	if lagged.Misses > immediate.Misses+20 {
		t.Fatalf("train latency too costly: %d vs %d misses", lagged.Misses, immediate.Misses)
	}
	if fullLag.Misses <= lagged.Misses {
		t.Fatalf("stale history (%d misses) should be worse than train lag (%d)",
			fullLag.Misses, lagged.Misses)
	}
}

func TestTrainLatencyRejectsNegative(t *testing.T) {
	_, err := NewPathExit(MustDOLC(2, 5, 5, 5, 1), LEH2, PathExitOptions{TrainLatency: -1})
	if err == nil {
		t.Fatalf("negative latency accepted")
	}
}
