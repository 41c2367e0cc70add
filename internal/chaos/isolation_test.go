package chaos

// Panic isolation under concurrency, and the round watchdog: one
// poisoned tenant's round dies with a structured internal error while
// sibling tenants' concurrent rounds — and the process — stay healthy;
// a wedged executor cannot hold a round past its time budget.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/fault"
)

// TestPanicIsolationAcrossTenants fires five tenants' rounds
// concurrently with a one-shot panic armed on the round seam: exactly
// one round absorbs the panic and fails with code "internal"; the other
// four succeed untouched; the process keeps serving and records the
// recovered panic in its metrics.
func TestPanicIsolationAcrossTenants(t *testing.T) {
	stack := NewStack(t)
	ctx := context.Background()
	check := CheckGoroutines(t, 5*time.Second)

	const tenants = 5
	clients := make([]*client.Client, tenants)
	for i := range clients {
		clients[i] = stack.NewClient(t, client.WithTenant(fmt.Sprintf("tenant-%d", i)))
	}

	if err := fault.Arm("discovery.round", fault.Injection{Mode: fault.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	defer fault.DisarmAll()

	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = clients[i].Discover(ctx, Request())
		}(i)
	}
	wg.Wait()

	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInternal {
			t.Fatalf("tenant %d failed with %v, want structured code %q", i, err, api.CodeInternal)
		}
	}
	if failed != 1 {
		t.Fatalf("%d rounds absorbed the one-shot panic, want exactly 1 (errs %v)", failed, errs)
	}

	// The pool and process survived: liveness holds, readiness holds, and
	// the recovered panic is visible in the process metrics.
	if err := stack.C.Healthz(ctx); err != nil {
		t.Fatalf("healthz after isolated panic: %v", err)
	}
	r, err := stack.C.Readyz(ctx)
	if err != nil || !r.Ready {
		t.Fatalf("readyz after isolated panic: %+v, %v", r, err)
	}
	metrics, err := stack.C.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `prism_panics_recovered_total{site="discovery.round"}`) {
		t.Fatal("recovered round panic not exported in metrics")
	}

	fault.DisarmAll()
	check()
}

// TestWatchdogFreesWedgedRound wedges every validation in a sleep that
// ignores its context and pins that the round watchdog returns the
// partial result at TimeLimit+grace instead of waiting the sleep out.
func TestWatchdogFreesWedgedRound(t *testing.T) {
	check := CheckGoroutines(t, 5*time.Second)
	eng, err := prism.Open("nba")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := prism.ParseConstraints(2, [][]string{{"Los Angeles", "Lakers"}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const wedge = 1500 * time.Millisecond
	if err := fault.Arm("sched.validate", fault.Injection{Mode: fault.ModeDelay, Delay: wedge}); err != nil {
		t.Fatal(err)
	}
	defer fault.DisarmAll()

	start := time.Now()
	report, err := eng.Discover(context.Background(), spec, prism.Options{
		TimeLimit: 200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("watchdogged round returned an error instead of a partial report: %v", err)
	}
	if report == nil || !report.TimedOut {
		t.Fatalf("report = %+v, want TimedOut", report)
	}
	if elapsed >= wedge {
		t.Fatalf("round took %v — the watchdog never freed it from the %v wedge", elapsed, wedge)
	}

	fault.DisarmAll()
	check()
}
