package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/exec"
)

func TestRunContextCancellation(t *testing.T) {
	fx := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	// OnProgress runs on the loop, between two validations: cancelling from
	// it guarantees the run is inside the loop when the context dies.
	outcomes := 0
	runner := &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &PathLengthEstimator{},
		Options: Options{TimeLimit: time.Hour, OnProgress: func(Snapshot) {
			if outcomes++; outcomes == 2 {
				cancel()
			}
		}},
	}
	res, err := runner.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !res.Cancelled {
		t.Error("result should be marked cancelled")
	}
	if res.TimedOut {
		t.Error("cancellation is not a timeout")
	}
	if res.Validations != 2 {
		t.Errorf("%d validations, want the 2 applied before the cancel", res.Validations)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	fx := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: &PathLengthEstimator{}}
	res, err := runner.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Validations != 0 {
		t.Errorf("pre-cancelled run executed %d validations", res.Validations)
	}
}

func TestRunContextCallbacks(t *testing.T) {
	fx := newFixture(t)
	resolved := map[int]bool{}
	confirmedCount := 0
	progressCalls := 0
	var lastSnap Snapshot
	runner := &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &PathLengthEstimator{},
		Options: Options{
			OnResolved: func(ci int, confirmed bool, s Snapshot) {
				if resolved[ci] {
					t.Errorf("candidate %d resolved twice", ci)
				}
				resolved[ci] = true
				if confirmed {
					confirmedCount++
				}
				if s.Confirmed+s.Pruned == 0 {
					t.Error("snapshot should reflect the resolution")
				}
			},
			OnProgress: func(s Snapshot) {
				progressCalls++
				lastSnap = s
			},
		},
	}
	res, err := runner.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != fx.set.NumCandidates() {
		t.Errorf("OnResolved covered %d of %d candidates", len(resolved), fx.set.NumCandidates())
	}
	if confirmedCount != len(res.Confirmed) {
		t.Errorf("OnResolved reported %d confirmations, result has %d", confirmedCount, len(res.Confirmed))
	}
	if progressCalls != res.Validations {
		t.Errorf("OnProgress called %d times for %d validations", progressCalls, res.Validations)
	}
	if lastSnap.Unresolved != 0 {
		t.Errorf("final snapshot should have no unresolved candidates: %+v", lastSnap)
	}
}

func TestSnapshotRemainingBudget(t *testing.T) {
	fx := newFixture(t)
	var remanings []time.Duration
	runner := &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &PathLengthEstimator{},
		Options: Options{
			TimeLimit:  time.Hour,
			OnProgress: func(s Snapshot) { remanings = append(remanings, s.Remaining) },
		},
	}
	if _, err := runner.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(remanings) == 0 {
		t.Fatal("no progress snapshots")
	}
	for _, rem := range remanings {
		if rem <= 0 || rem > time.Hour {
			t.Errorf("remaining budget %s out of range", rem)
		}
	}
}

// wedgingExecutor answers its first `free` probes and then blocks every
// probe, deaf to its context, until release is closed.
type wedgingExecutor struct {
	exec.Executor
	free    int
	probes  atomic.Int64
	release chan struct{}
}

func (w *wedgingExecutor) Exists(plan exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	if int(w.probes.Add(1)) > w.free {
		<-w.release
	}
	return w.Executor.Exists(plan, opts)
}

// TestWatchdogSilencesAbandonedLoop wedges the third validation of a run
// past the time budget: RunContext must come back timed out with the two
// outcomes it applied, the watchdog counter must move, and once the wedged
// probe is let go the abandoned loop must end without another callback.
func TestWatchdogSilencesAbandonedLoop(t *testing.T) {
	fx := newFixture(t)
	db := &wedgingExecutor{Executor: fx.db, free: 2, release: make(chan struct{})}
	var returned atomic.Bool
	var early, late atomic.Int64
	count := func() {
		if returned.Load() {
			late.Add(1)
		} else {
			early.Add(1)
		}
	}
	runner := &Runner{
		DB: db, Spec: fx.spec, Set: fx.set,
		Estimator: &PathLengthEstimator{},
		Options: Options{
			TimeLimit:  50 * time.Millisecond,
			OnResolved: func(int, bool, Snapshot) { count() },
			OnProgress: func(Snapshot) { count() },
		},
	}
	fired := metricWatchdog.Value()
	baseline := runtime.NumGoroutine()
	res, err := runner.RunContext(context.Background())
	returned.Store(true)
	if err != nil {
		t.Fatalf("abandoned run returned %v, want the partial result", err)
	}
	if !res.TimedOut || res.Validations != 2 {
		t.Errorf("result = %+v, want timed out after 2 validations", res)
	}
	if early.Load() < 2 {
		t.Errorf("%d callbacks before the return, want one per applied outcome at least", early.Load())
	}
	if got := metricWatchdog.Value() - fired; got != 1 {
		t.Errorf("watchdog counter moved by %d, want 1", got)
	}

	// The abandoned loop is the one goroutine the run leaves behind; it ends
	// once its wedged probe comes back.
	close(db.release)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the abandoned loop did not end: %d goroutines, %d before the run", runtime.NumGoroutine(), baseline)
		}
	}
	if late.Load() != 0 {
		t.Errorf("%d callbacks fired after RunContext had returned", late.Load())
	}
}
