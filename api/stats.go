package api

// The serving-tier wire surface: tenant/priority request headers and the
// GET /api/v1/stats observability endpoint that prism-loadtest and the CI
// regression legs scrape. Like the rest of v1, the stats body is
// append-only. The sibling GET /api/v1/metrics endpoint (MetricsPath)
// exposes the same live sources — plus the library round metrics — in
// Prometheus text format for standard scrapers.

// Serving headers. Requests without a tenant header are accounted to
// DefaultTenant; requests without a priority header get the endpoint's
// default class (interactive for session refine rounds, normal for
// one-shot discovers).
const (
	// TenantHeader names the tenant a request is accounted (and budgeted)
	// under.
	TenantHeader = "X-Prism-Tenant"
	// PriorityHeader selects the request's admission priority class; see
	// the Priority* constants for the values.
	PriorityHeader = "X-Prism-Priority"
	// DefaultTenant is the tenant of requests without a TenantHeader.
	DefaultTenant = "default"
)

// Priority class names carried in PriorityHeader, in descending order of
// urgency. An unknown value is rejected with CodeInvalidRequest.
const (
	PriorityInteractive = "interactive"
	PriorityNormal      = "normal"
	PriorityBatch       = "batch"
)

// StatsPath is the stats endpoint, relative to PathPrefix.
const StatsPath = "/stats"

// MetricsPath is the Prometheus text-exposition endpoint, relative to
// PathPrefix. Unlike the JSON surface its body is the Prometheus text
// format (version 0.0.4); series may be added at any time, scrapers
// must ignore unknown families.
const MetricsPath = "/metrics"

// AdmissionStats is the global admission-controller view.
type AdmissionStats struct {
	// MaxConcurrent, MaxPerTenant and MaxQueue echo the server's
	// configured budgets, so a scraper can compute utilization.
	MaxConcurrent int `json:"maxConcurrent"`
	MaxPerTenant  int `json:"maxPerTenant"`
	MaxQueue      int `json:"maxQueue"`
	// InFlight is the number of rounds running right now; QueueDepth the
	// number of requests waiting for admission.
	InFlight   int `json:"inFlight"`
	QueueDepth int `json:"queueDepth"`
	// Admitted/Shed/Drained are lifetime counters: rounds admitted,
	// requests shed with 429, and requests rejected during shutdown.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Drained  int64 `json:"drained"`
	// Draining reports that the server is shutting down.
	Draining bool `json:"draining,omitempty"`
}

// TenantStats is the admission view of one tenant.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	InFlight int    `json:"inFlight"`
	Queued   int    `json:"queued"`
}

// LatencyStats reports the round-latency quantiles of one priority class
// over the server's sliding sample window.
type LatencyStats struct {
	Priority string  `json:"priority"`
	Count    int64   `json:"count"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
}

// StatsResponse is the body of GET /api/v1/stats.
type StatsResponse struct {
	// UptimeMs is the time since the server started serving.
	UptimeMs  int64          `json:"uptimeMs"`
	Admission AdmissionStats `json:"admission"`
	// Tenants is sorted by tenant name.
	Tenants []TenantStats `json:"tenants"`
	// Latency has one entry per priority class in dispatch order, p50/p99
	// in milliseconds over the sliding window.
	Latency []LatencyStats `json:"latency"`
	// StreamStalls counts streaming rounds cancelled because their
	// consumer could not keep up (backpressure).
	StreamStalls int64 `json:"streamStalls"`
	// Ready mirrors GET /api/v1/readyz: whether the server should
	// receive traffic, with the degradation reasons when it should not.
	Ready        bool     `json:"ready"`
	ReadyReasons []string `json:"readyReasons,omitempty"`
	// Panics counts handler panics recovered into structured internal
	// errors since the server started.
	Panics int64 `json:"panics"`
}
