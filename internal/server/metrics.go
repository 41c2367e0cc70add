package server

// GET /api/v1/metrics: the Prometheus text exposition of the serving
// tier. Serve-tier values that already back /api/v1/stats (admission
// counters, stream stalls) are exported through a scrape-time
// collector reading the same live sources, and the per-class latency
// histograms are instruments of the server's registry that handleStats
// reads too, so the two endpoints cannot disagree; library round metrics
// (prism_rounds_*, validation and memory counters) come from the
// process-default obs registry populated by internal/discovery.

import (
	"context"
	"net/http"
	"time"

	"prism"
	"prism/api"
	"prism/internal/obs"
	"prism/internal/serve"
)

// tenantKey carries the admitted tenant through the request context so
// round handlers can label per-tenant metric series.
type tenantKey struct{}

// tenantFrom returns the tenant the admission middleware stored in ctx,
// or the default tenant for paths that bypass admission.
func tenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok && t != "" {
		return t
	}
	return api.DefaultTenant
}

// initMetrics wires the per-server metrics registry. Each Server owns
// its own registry (tests mount many servers in one process; sharing
// obs.Default would cross their collector output), registered once from
// init.
func (s *Server) initMetrics() {
	s.obsReg = obs.NewRegistry()
	s.obsReg.RegisterCollector(s.collectServe)
	s.latency = make([]*obs.Histogram, len(serve.Priorities()))
	for _, pri := range serve.Priorities() {
		s.latency[pri] = s.obsReg.Histogram("prism_serve_latency_ms",
			"Round latency over the sliding window, by priority class, in milliseconds.",
			latencyWindow, obs.Label{Key: "priority", Value: pri.String()})
	}
	s.tenantSeen = make(map[string]struct{})
}

// latencyWindow is how many recent rounds per priority class the latency
// quantiles cover: a p99 needs at least 100 samples to mean anything, and
// every scrape sorts a copy of the window.
const latencyWindow = 2048

// maxTenantSeries caps how many distinct tenant label values the
// per-tenant round series may use. Registry series are memoized for the
// life of the process, and the tenant header is client-supplied, so
// without a cap any client minting unique header values would grow
// server memory and scrape cardinality without bound. Tenants beyond
// the cap fold into tenantOverflow.
const maxTenantSeries = 64

// tenantOverflow is the tenant label value aggregating rounds from
// tenants beyond the maxTenantSeries cardinality cap.
const tenantOverflow = "other"

// tenantLabelValue returns the metric label value for a tenant: the
// tenant itself while fewer than maxTenantSeries distinct values have
// been seen, tenantOverflow afterwards. A tenant admitted once keeps
// its own series forever, so a scrape never sees a value move between
// label sets.
func (s *Server) tenantLabelValue(tenant string) string {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if _, ok := s.tenantSeen[tenant]; ok {
		return tenant
	}
	if len(s.tenantSeen) >= maxTenantSeries {
		return tenantOverflow
	}
	s.tenantSeen[tenant] = struct{}{}
	return tenant
}

// handleMetrics serves GET /api/v1/metrics. The response concatenates
// the server's own registry (serve-tier collectors, per-tenant series)
// with the process-default registry (library round metrics); the family
// names are disjoint, so the concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.obsReg.WritePrometheus(w); err != nil {
		return
	}
	_ = obs.Default.WritePrometheus(w)
}

// recordRoundMetrics folds one finished round into the per-tenant
// series of the server registry. Called once per round from the
// discover, stream and refine handlers — never inside the round.
func (s *Server) recordRoundMetrics(ctx context.Context, report *prism.Report) {
	if report == nil {
		return
	}
	l := obs.Label{Key: "tenant", Value: s.tenantLabelValue(tenantFrom(ctx))}
	s.obsReg.Counter("prism_tenant_rounds_total",
		"Discovery rounds completed, by tenant.", l).Inc()
	s.obsReg.Counter("prism_tenant_validations_total",
		"Filter validations executed, by tenant.", l).Add(int64(report.Validations))
	s.obsReg.Counter("prism_tenant_rows_scanned_total",
		"Base-table rows read by validations, by tenant.", l).Add(int64(report.Cost.RowsScanned))
	s.obsReg.Gauge("prism_tenant_memory_peak_scratch_bytes",
		"High-water mark of one execution state's pooled scratch arenas, by tenant.", l).
		SetMax(int64(report.Cost.ScratchBytes))
}

// collectServe is the scrape-time collector mirroring handleStats: it
// reads the admission controller snapshot and the stream-stall counter at
// scrape time.
func (s *Server) collectServe() []obs.Sample {
	snap := s.admission.Snapshot()
	counter := func(name, help string, v int64, labels ...obs.Label) obs.Sample {
		return obs.Sample{Name: name, Help: help, Type: obs.TypeCounter, Labels: labels, Value: float64(v)}
	}
	gauge := func(name, help string, v float64, labels ...obs.Label) obs.Sample {
		return obs.Sample{Name: name, Help: help, Type: obs.TypeGauge, Labels: labels, Value: v}
	}
	out := []obs.Sample{
		gauge("prism_serve_uptime_seconds", "Seconds since the server started.",
			time.Since(s.started).Seconds()),
		gauge("prism_serve_inflight", "Rounds currently admitted and running.",
			float64(snap.InFlight)),
		gauge("prism_serve_queue_depth", "Rounds waiting in the admission queue.",
			float64(snap.QueueDepth)),
		counter("prism_serve_admitted_total", "Rounds admitted by the controller.", snap.Admitted),
		counter("prism_serve_shed_total", "Rounds shed with 429 by the controller.", snap.Shed),
		counter("prism_serve_drained_total", "Rounds drained during shutdown.", snap.Drained),
		counter("prism_serve_stream_stalls_total",
			"Streaming rounds cancelled because the consumer stalled.", s.streamStalls.Load()),
		counter("prism_serve_panics_total",
			"Handler panics recovered into structured internal errors.", s.panics.Load()),
	}
	ready, _ := s.health.Ready()
	readyVal := 0.0
	if ready {
		readyVal = 1
	}
	out = append(out, gauge("prism_ready",
		"Whether the server passes its readiness probe (1 ready, 0 degraded).", readyVal))
	for _, t := range snap.Tenants {
		l := obs.Label{Key: "tenant", Value: t.Tenant}
		out = append(out,
			counter("prism_serve_tenant_admitted_total", "Rounds admitted, by tenant.", t.Admitted, l),
			counter("prism_serve_tenant_shed_total", "Rounds shed, by tenant.", t.Shed, l),
			gauge("prism_serve_tenant_inflight", "Rounds running, by tenant.", float64(t.InFlight), l),
			gauge("prism_serve_tenant_queued", "Rounds queued, by tenant.", float64(t.Queued), l),
		)
	}
	return out
}
