package server

// The serving-tier integration: every discovery round passes the
// admission controller (prism/internal/serve) before it may start, so a
// multi-tenant deployment degrades by shedding load with 429 + Retry-After
// instead of queueing unboundedly, and GET /api/v1/stats exposes the
// controller and per-class latency quantiles for scrapers (prism-loadtest,
// dashboards, the CI regression leg).

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"prism/api"
	"prism/internal/serve"
)

// init wires the serving-tier state; it is idempotent and called by
// Handler, so every entry point (ListenAndServe, tests mounting Handler
// directly) gets an admission controller.
func (s *Server) init() {
	s.initOnce.Do(func() {
		s.sessions = newSessionStore()
		s.admission = serve.NewController(s.Admission)
		s.health = serve.NewHealth()
		s.started = time.Now()
		s.initMetrics()
	})
}

// admitted gates a round-running handler behind the admission controller.
// The tenant comes from the X-Prism-Tenant header (DefaultTenant when
// absent), the priority class from X-Prism-Priority (the handler's default
// when absent; an unknown value is a structured 400). Shed requests get
// 429 with a Retry-After hint; during shutdown the answer is an immediate
// 503 so a restarting fleet fails fast. Admitted rounds are timed into the
// per-class latency histograms on completion.
func (s *Server) admitted(def serve.Priority, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(api.TenantHeader)
		if tenant == "" {
			tenant = api.DefaultTenant
		}
		pri := def
		if raw := r.Header.Get(api.PriorityHeader); raw != "" {
			p, err := serve.ParsePriority(raw)
			if err != nil {
				writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
				return
			}
			pri = p
		}
		release, err := s.admission.Admit(r.Context(), tenant, pri)
		// Feed the readiness shed-rate window: a server shedding most of
		// its traffic for a sustained stretch should fail readyz so load
		// balancers route around it.
		s.health.ObserveAdmission(err != nil)
		if err != nil {
			s.writeAdmissionError(w, err)
			return
		}
		defer release()
		// Stash the tenant so round handlers can label per-tenant metrics.
		r = r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant))
		start := time.Now()
		h(w, r)
		s.latency[pri].Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// writeAdmissionError maps an admission failure to its wire shape:
// overloaded → 429 + Retry-After, draining → 503, an abandoned context →
// 503 (the client is usually gone by then).
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, api.ErrOverloaded):
		secs := int(math.Ceil(s.admission.RetryAfter().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeAPIError(w, http.StatusTooManyRequests, api.CodeOverloaded, err.Error())
	case errors.Is(err, api.ErrDraining):
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, err.Error())
	default:
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeOverloaded,
			"request abandoned while queued: "+err.Error())
	}
}

// handleStats serves GET /api/v1/stats: admission counters (global and
// per-tenant), per-class latency quantiles over the sliding window and the
// stream-stall counter.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	snap := s.admission.Snapshot()
	resp := api.StatsResponse{
		UptimeMs: time.Since(s.started).Milliseconds(),
		Admission: api.AdmissionStats{
			MaxConcurrent: snap.MaxConcurrent,
			MaxPerTenant:  snap.MaxPerTenant,
			MaxQueue:      snap.MaxQueue,
			InFlight:      snap.InFlight,
			QueueDepth:    snap.QueueDepth,
			Admitted:      snap.Admitted,
			Shed:          snap.Shed,
			Drained:       snap.Drained,
			Draining:      snap.Draining,
		},
		StreamStalls: s.streamStalls.Load(),
		Panics:       s.panics.Load(),
	}
	resp.Ready, resp.ReadyReasons = s.health.Ready()
	for _, t := range snap.Tenants {
		resp.Tenants = append(resp.Tenants, api.TenantStats{
			Tenant:   t.Tenant,
			Admitted: t.Admitted,
			Shed:     t.Shed,
			InFlight: t.InFlight,
			Queued:   t.Queued,
		})
	}
	for _, pri := range serve.Priorities() {
		h := s.latency[pri]
		l := api.LatencyStats{Priority: pri.String(), Count: h.Count()}
		if l.Count > 0 { // an empty window has no quantiles (NaN); the JSON reads 0
			l.P50Ms, l.P99Ms = h.Quantile(0.5), h.Quantile(0.99)
		}
		resp.Latency = append(resp.Latency, l)
	}
	writeJSON(w, http.StatusOK, resp)
}
