package sched

// Robustness seams of the scheduling loop: the time budget, the validation
// fault point, the panic counter and the watchdog counter. A panicking
// validator (an executor bug, an injected fault) must abort only the round
// that hit it — the loop recovers it into a sentinel.ErrInternal-wrapped error
// and the process stays healthy. The watchdog bounds a round whose executor
// wedges past the time budget without honoring context cancellation.

import (
	"context"
	"errors"
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

// watchdogGrace bounds how long past its context's deadline a run may go on
// before the watchdog abandons its wedged validation: a tenth of the time
// the run was given, clamped to [100ms, 5s].
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

// ErrBudget is the cancellation cause of a context whose time budget ran
// out. It is never returned as an error: a round that exhausts its budget
// ends cleanly, timed out, with the partial result (the paper reports the
// expiry as a failure of the round, not of the program).
var ErrBudget = errors.New("sched: time budget exhausted")

// WithBudget bounds ctx by limit measured from start (limit <= 0: no budget,
// the context is only cancellable). Every time budget is issued here — by
// discovery for a whole round, by RunContext for a stand-alone run — so that
// Interruption can tell its expiry from anything the caller did.
func WithBudget(ctx context.Context, start time.Time, limit time.Duration) (context.Context, context.CancelFunc) {
	if limit <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithDeadlineCause(ctx, start.Add(limit), ErrBudget)
}

// Interruption classifies a context: all zero while it is alive; timedOut
// once a budget issued by WithBudget has expired; cancelled, with ctx.Err(),
// when it died for any other reason.
func Interruption(ctx context.Context) (timedOut, cancelled bool, err error) {
	switch {
	case ctx.Err() == nil:
		return false, false, nil
	case errors.Is(context.Cause(ctx), ErrBudget):
		return true, false, nil
	}
	return false, true, ctx.Err()
}
