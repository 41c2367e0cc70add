package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prism"
	"prism/api"
	"prism/internal/obs"
)

// scrapeMetrics fetches path and parses the Prometheus text exposition
// into series → value (series keys keep their label block verbatim).
func scrapeMetrics(t *testing.T, h http.Handler, path string) (map[string]float64, *httptest.ResponseRecorder) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status=%d body=%s", path, rec.Code, rec.Body)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[cut+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out, rec
}

func getStats(t *testing.T, h http.Handler) api.StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/v1/stats: status=%d", rec.Code)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestMetricsStatsCrossCheck pins the no-drift contract: /api/v1/metrics
// and /api/v1/stats read the same live sources, so after a quiesced round
// the admission, latency and stall values must be identical, and
// the per-tenant aggregates must account the round to its tenant.
func TestMetricsStatsCrossCheck(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	req := paperRequest()
	rec := postDiscover(t, h, req, map[string]string{api.TenantHeader: "acme-metrics"})
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: status=%d body=%s", rec.Code, rec.Body)
	}
	var resp api.DiscoverResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Validations == 0 {
		t.Fatalf("round validated nothing: %+v", resp)
	}

	metrics, mrec := scrapeMetrics(t, h, "/api/v1/metrics")
	if got := mrec.Header().Get("Content-Type"); got != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	stats := getStats(t, h)

	// No rounds run between the two scrapes, so every shared source must
	// agree exactly.
	same := []struct {
		series string
		want   float64
	}{
		{"prism_serve_admitted_total", float64(stats.Admission.Admitted)},
		{"prism_serve_shed_total", float64(stats.Admission.Shed)},
		{"prism_serve_drained_total", float64(stats.Admission.Drained)},
		{"prism_serve_inflight", float64(stats.Admission.InFlight)},
		{"prism_serve_queue_depth", float64(stats.Admission.QueueDepth)},
		{"prism_serve_stream_stalls_total", float64(stats.StreamStalls)},
	}
	for _, c := range same {
		got, ok := metrics[c.series]
		if !ok {
			t.Errorf("series %s missing from /api/v1/metrics", c.series)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, metrics and stats drifted (stats: %v)", c.series, got, c.want)
		}
	}
	for _, tn := range stats.Tenants {
		key := fmt.Sprintf("prism_serve_tenant_admitted_total{tenant=%q}", tn.Tenant)
		if got := metrics[key]; got != float64(tn.Admitted) {
			t.Errorf("%s = %v, want %v", key, got, tn.Admitted)
		}
	}
	for _, l := range stats.Latency {
		key := fmt.Sprintf("prism_serve_latency_ms_count{priority=%q}", l.Priority)
		if got := metrics[key]; got != float64(l.Count) {
			t.Errorf("%s = %v, want %v", key, got, l.Count)
		}
		// The exposition prints six decimals; an idle class has no
		// quantiles there (NaN) and zeros in the JSON.
		for quantile, want := range map[string]float64{"0.5": l.P50Ms, "0.99": l.P99Ms} {
			key := fmt.Sprintf("prism_serve_latency_ms{priority=%q,quantile=%q}", l.Priority, quantile)
			got, ok := metrics[key]
			if !ok {
				t.Errorf("series %s missing from /api/v1/metrics", key)
			} else if l.Count == 0 && !math.IsNaN(got) || l.Count > 0 && math.Abs(got-want) > 1e-6 {
				t.Errorf("%s = %v, stats reports %v over %d rounds", key, got, want, l.Count)
			}
		}
	}

	// The per-tenant round aggregates account the round we just ran.
	if got := metrics[`prism_tenant_rounds_total{tenant="acme-metrics"}`]; got != 1 {
		t.Errorf("prism_tenant_rounds_total{acme-metrics} = %v, want 1", got)
	}
	if got := metrics[`prism_tenant_validations_total{tenant="acme-metrics"}`]; got != float64(resp.Validations) {
		t.Errorf("prism_tenant_validations_total{acme-metrics} = %v, want %d", got, resp.Validations)
	}

	// Library round counters from the process-default registry (shared
	// across the test binary, hence >=).
	if got := metrics["prism_rounds_total"]; got < 1 {
		t.Errorf("prism_rounds_total = %v, want >= 1", got)
	}
	if got := metrics["prism_validations_total"]; got < float64(resp.Validations) {
		t.Errorf("prism_validations_total = %v, want >= %d", got, resp.Validations)
	}
	if got := metrics["prism_rows_scanned_total"]; got <= 0 {
		t.Errorf("prism_rows_scanned_total = %v, want > 0", got)
	}
}

// TestMetricsCacheCountersMatchSession pins the cache satellite: the
// filter-outcome cache counters a refine response reports are the exact
// delta the prism_filter_cache_* series move by.
func TestMetricsCacheCountersMatchSession(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	sr := createSession(t, h)
	refinePath := "/api/v1/session/" + sr.SessionID + "/refine"

	seed := api.RefineRequest{
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
	var cold api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, seed, &cold); rec.Code != http.StatusOK {
		t.Fatalf("seed round: status=%d body=%s", rec.Code, rec.Body)
	}

	before, _ := scrapeMetrics(t, h, "/api/v1/metrics")
	refine := api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}},
	}
	var warm api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, refine, &warm); rec.Code != http.StatusOK {
		t.Fatalf("refine round: status=%d body=%s", rec.Code, rec.Body)
	}
	after, _ := scrapeMetrics(t, h, "/api/v1/metrics")

	if warm.Cache == nil || warm.Cache.Hits == 0 {
		t.Fatalf("refine round reused nothing: %+v", warm.Cache)
	}
	deltas := map[string]int{
		"prism_filter_cache_hits_total":   warm.Cache.Hits,
		"prism_filter_cache_misses_total": warm.Cache.Misses,
		"prism_filter_cache_stores_total": warm.Cache.Stores,
	}
	for series, want := range deltas {
		if got := after[series] - before[series]; got != float64(want) {
			t.Errorf("%s moved by %v over the refine round, response reported %d", series, got, want)
		}
	}
}

// TestMetricsTenantCardinalityCap pins the bound on per-tenant series:
// the tenant label is client-supplied, so a client minting unique
// header values must not grow the registry (and the scrape output)
// without bound — tenants beyond the cap fold into the "other" label,
// while tenants seen before the cap keep their own series.
func TestMetricsTenantCardinalityCap(t *testing.T) {
	s := testServer(t)
	s.Handler() // force init
	report := &prism.Report{Validations: 1}
	ctxFor := func(tenant string) context.Context {
		return context.WithValue(context.Background(), tenantKey{}, tenant)
	}
	for i := 0; i < maxTenantSeries+25; i++ {
		s.recordRoundMetrics(ctxFor(fmt.Sprintf("tenant-%03d", i)), report)
	}
	// A pre-cap tenant keeps its own series even after the cap is hit.
	s.recordRoundMetrics(ctxFor("tenant-000"), report)

	metrics, _ := scrapeMetrics(t, s.Handler(), "/api/v1/metrics")
	var tenants int
	for series := range metrics {
		if strings.HasPrefix(series, "prism_tenant_rounds_total{") {
			tenants++
		}
	}
	if tenants != maxTenantSeries+1 { // capped tenants + the "other" fold
		t.Errorf("distinct prism_tenant_rounds_total series = %d, want %d", tenants, maxTenantSeries+1)
	}
	if got := metrics[`prism_tenant_rounds_total{tenant="other"}`]; got != 25 {
		t.Errorf(`prism_tenant_rounds_total{tenant="other"} = %v, want 25`, got)
	}
	if got := metrics[`prism_tenant_rounds_total{tenant="tenant-000"}`]; got != 2 {
		t.Errorf(`prism_tenant_rounds_total{tenant="tenant-000"} = %v, want 2`, got)
	}
	if _, ok := metrics[fmt.Sprintf(`prism_tenant_rounds_total{tenant="tenant-%03d"}`, maxTenantSeries+5)]; ok {
		t.Error("post-cap tenant minted its own series")
	}
}

// TestMetricsMethodNotAllowed pins the structured 405 of the endpoint.
func TestMetricsMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v1/metrics: status=%d, want 405", rec.Code)
	}
	var apiErr api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeMethodNotAllowed {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeMethodNotAllowed)
	}
}
