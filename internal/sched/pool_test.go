package sched

import (
	"testing"
	"time"
)

// TestPoolGaugeTracksRuns pins the validation gauge: a scheduling run
// must raise the completed-validation counter, and after it returns no
// worker may remain live (each run's loop has ended).
func TestPoolGaugeTracksRuns(t *testing.T) {
	before := PoolSnapshot()
	fx := newFixture(t)
	runner := &Runner{
		DB:        fx.db,
		Spec:      fx.spec,
		Set:       fx.set,
		Estimator: &PathLengthEstimator{},
	}
	if _, err := runner.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	after := PoolSnapshot()
	if after.CompletedValidations <= before.CompletedValidations {
		t.Errorf("completed validations did not advance: %d -> %d",
			before.CompletedValidations, after.CompletedValidations)
	}
	waitForNoLiveWorkers(t)
	if got := (PoolStats{LiveWorkers: 4, ActiveValidations: 2}).Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	if got := (PoolStats{}).Utilization(); got != 0 {
		t.Errorf("empty utilization = %v, want 0", got)
	}
}

// waitForNoLiveWorkers polls the gauge down to zero. A loop leaves the gauge
// before its RunContext returns, but one the watchdog abandoned lives on
// until its wedged validation comes back.
func waitForNoLiveWorkers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for PoolSnapshot().LiveWorkers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("live workers did not drain: %d", PoolSnapshot().LiveWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}
