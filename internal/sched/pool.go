package sched

import "sync/atomic"

// Process-wide validation gauge. Every RunContext has one worker, its
// greedy loop; the gauge aggregates the loops of all concurrently running
// rounds so the serving tier can sample utilization (active validations
// vs. live workers) for its stats endpoint without reaching into
// individual runs.
var pool struct {
	liveWorkers atomic.Int64
	active      atomic.Int64
	completed   atomic.Int64
}

// PoolStats is a point-in-time sample of the process-wide validation
// workers.
type PoolStats struct {
	// LiveWorkers is the number of scheduling loops currently running,
	// one per round.
	LiveWorkers int64
	// ActiveValidations is how many workers are executing a validation at
	// the sampling instant.
	ActiveValidations int64
	// CompletedValidations counts validations finished since process
	// start.
	CompletedValidations int64
}

// Utilization is ActiveValidations/LiveWorkers, or 0 when no workers are
// live.
func (p PoolStats) Utilization() float64 {
	if p.LiveWorkers <= 0 {
		return 0
	}
	return float64(p.ActiveValidations) / float64(p.LiveWorkers)
}

// PoolSnapshot samples the gauge.
func PoolSnapshot() PoolStats {
	return PoolStats{
		LiveWorkers:          pool.liveWorkers.Load(),
		ActiveValidations:    pool.active.Load(),
		CompletedValidations: pool.completed.Load(),
	}
}
