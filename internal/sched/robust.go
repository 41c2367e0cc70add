package sched

// Robustness seams of the scheduling loop: the validation fault point,
// the panic counter, and the watchdog counter. A panicking validator
// (an executor bug, an injected fault) must abort only the round that
// hit it — the loop recovers it into a fault.ErrInternal-wrapped error
// and the process stays healthy. The watchdog bounds
// a round whose executor wedges past the time budget without honoring
// context cancellation.

import (
	"time"

	"prism/internal/fault"
	"prism/internal/obs"
)

var (
	// faultValidate fires inside a validation, before the backend
	// runs. Armed with ModePanic it exercises the loop's panic
	// isolation; with ModeDelay it wedges a validation under the round
	// watchdog.
	faultValidate = fault.Register("sched.validate")

	metricPanics = obs.Default.Counter("prism_panics_recovered_total",
		"Panics caught and converted to internal errors, by recovery site.",
		obs.Label{Key: "site", Value: "sched.worker"})
	metricWatchdog = obs.Default.Counter("prism_watchdog_fired_total",
		"Rounds force-finished by the watchdog after a validation wedged past the time budget.")
)

// watchdogGrace bounds how long past Options.TimeLimit a round may run
// before the watchdog abandons its wedged validation: a tenth of the
// budget, clamped to [100ms, 5s].
func watchdogGrace(limit time.Duration) time.Duration {
	g := limit / 10
	if g < 100*time.Millisecond {
		g = 100 * time.Millisecond
	}
	if g > 5*time.Second {
		g = 5 * time.Second
	}
	return g
}
