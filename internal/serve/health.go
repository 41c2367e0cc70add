package serve

// Health is the readiness tracker behind GET /api/v1/readyz. Liveness
// (healthz) is implicit — a process that answers HTTP is alive — but
// readiness is a judgment: a server that is draining, failing to open
// its engines, or shedding most of its traffic should tell load
// balancers and retrying clients to go elsewhere before they pile on.
//
// Readiness degrades on three signals and recovers on their reverse:
//
//   - draining: set for good when shutdown starts;
//   - repeated failures of a named source ("snapshot", "ingest",
//     "engine"): failureThreshold consecutive failures mark the source
//     degraded, one success clears it;
//   - sustained shed: when, over the trailing shedWindow, at least
//     minWindowRequests admissions were decided and more than
//     shedRateThreshold of them were shed.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The readiness thresholds.
const (
	// failureThreshold is how many consecutive failures of one source
	// degrade readiness.
	failureThreshold = 3
	// shedWindow is the trailing window of the shed-rate signal.
	shedWindow = 30 * time.Second
	// shedRateThreshold is the shed fraction over the window above which
	// the server is not ready.
	shedRateThreshold = 0.75
	// minWindowRequests is how many admission decisions the window must
	// hold before its shed rate means anything.
	minWindowRequests = 20
)

// shedBucket aggregates one second of admission decisions.
type shedBucket struct {
	sec      int64
	admitted int64
	shed     int64
}

// Health tracks the readiness signals. All methods are safe for
// concurrent use.
type Health struct {
	now func() time.Time // time.Now; tests drive their own clock

	mu       sync.Mutex
	draining bool
	// consecutive failure count and degraded flag per source.
	failures map[string]int
	degraded map[string]bool
	// ring of per-second shed buckets covering shedWindow.
	buckets []shedBucket
}

// NewHealth builds a readiness tracker.
func NewHealth() *Health {
	return &Health{
		now:      time.Now,
		failures: make(map[string]int),
		degraded: make(map[string]bool),
		buckets:  make([]shedBucket, shedWindow/time.Second+1),
	}
}

// SetDraining marks the server as draining; readiness never recovers
// from it (shutdown is one-way).
func (h *Health) SetDraining() {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
}

// ReportFailure records one failure of a named source (e.g. "snapshot",
// "ingest", "engine"). Reaching the failure threshold degrades
// readiness until the source succeeds again.
func (h *Health) ReportFailure(source string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures[source]++
	if h.failures[source] >= failureThreshold {
		h.degraded[source] = true
	}
}

// ReportSuccess records one success of a named source, clearing its
// consecutive-failure streak and any degradation.
func (h *Health) ReportSuccess(source string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failures[source] != 0 {
		h.failures[source] = 0
	}
	if h.degraded[source] {
		delete(h.degraded, source)
	}
}

// ObserveAdmission records one admission decision for the shed-rate
// window: shed is true when the request was rejected with 429/503.
func (h *Health) ObserveAdmission(shed bool) {
	now := h.now().Unix()
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &h.buckets[now%int64(len(h.buckets))]
	if b.sec != now {
		b.sec, b.admitted, b.shed = now, 0, 0
	}
	if shed {
		b.shed++
	} else {
		b.admitted++
	}
}

// shedRateLocked returns the shed fraction and decision count over the
// trailing window.
func (h *Health) shedRateLocked() (rate float64, total int64) {
	now := h.now().Unix()
	horizon := now - int64(shedWindow/time.Second)
	var admitted, shed int64
	for i := range h.buckets {
		b := &h.buckets[i]
		if b.sec > horizon && b.sec <= now {
			admitted += b.admitted
			shed += b.shed
		}
	}
	total = admitted + shed
	if total == 0 {
		return 0, 0
	}
	return float64(shed) / float64(total), total
}

// Ready reports whether the server should receive traffic, with the
// degradation reasons when it should not (sorted, stable for tests and
// status pages).
func (h *Health) Ready() (bool, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var reasons []string
	if h.draining {
		reasons = append(reasons, "draining")
	}
	for source := range h.degraded {
		reasons = append(reasons, fmt.Sprintf("%s: %d consecutive failures",
			source, h.failures[source]))
	}
	if rate, total := h.shedRateLocked(); total >= minWindowRequests && rate > shedRateThreshold {
		reasons = append(reasons, fmt.Sprintf("shedding %.0f%% of %d requests over %v",
			rate*100, total, shedWindow))
	}
	sort.Strings(reasons)
	return len(reasons) == 0, reasons
}
