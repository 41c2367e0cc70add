package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/api"
	"prism/internal/serve"
)

func postDiscover(t *testing.T, h http.Handler, req api.DiscoverRequest, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/api/v1/discover", strings.NewReader(string(body)))
	for k, v := range headers {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestAdmissionShedsWith429 pins the overload contract: with every slot
// busy and the queue full, a discover request is shed immediately as a
// structured 429 carrying the "overloaded" code and a Retry-After hint.
func TestAdmissionShedsWith429(t *testing.T) {
	s := testServer(t)
	s.Admission = serve.Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Second}
	h := s.Handler()

	// Occupy the only slot and fill the one queue position.
	release, err := s.admission.Admit(context.Background(), "hog", serve.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	queued := make(chan error, 1)
	go func() {
		rel, err := s.admission.Admit(context.Background(), "hog", serve.PriorityNormal)
		if rel != nil {
			rel()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return s.admission.Snapshot().QueueDepth == 1 })

	rec := postDiscover(t, h, paperRequest(), map[string]string{api.TenantHeader: "shed-me"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	var apiErr api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeOverloaded {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeOverloaded)
	}

	release()
	if err := <-queued; err != nil {
		t.Errorf("queued request after release: %v", err)
	}

	// The shed is accounted to the request's tenant.
	var stats api.StatsResponse
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tn := range stats.Tenants {
		if tn.Tenant == "shed-me" && tn.Shed == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("tenant shed-me with Shed=1 not in stats: %+v", stats.Tenants)
	}
}

// TestAdmissionDrainingReturns503 pins graceful shutdown: a request queued
// behind a busy server is flushed with an immediate structured 503
// ("draining") when the controller drains, and later arrivals fail fast
// the same way.
func TestAdmissionDrainingReturns503(t *testing.T) {
	s := testServer(t)
	s.Admission = serve.Config{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 30 * time.Second}
	h := s.Handler()

	release, err := s.admission.Admit(context.Background(), "hog", serve.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	type result struct{ rec *httptest.ResponseRecorder }
	done := make(chan result, 1)
	go func() {
		done <- result{postDiscover(t, h, paperRequest(), nil)}
	}()
	waitFor(t, func() bool { return s.admission.Snapshot().QueueDepth == 1 })

	s.admission.Drain()

	res := <-done
	if res.rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request status = %d, want 503 (body %s)", res.rec.Code, res.rec.Body.String())
	}
	var apiErr api.Error
	if err := json.Unmarshal(res.rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeDraining {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeDraining)
	}
	if rec := postDiscover(t, h, paperRequest(), nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request status = %d, want 503", rec.Code)
	}
}

// TestPriorityHeaderValidation pins that an unknown X-Prism-Priority value
// is a structured 400 with the invalid_request code, before any round
// work starts.
func TestPriorityHeaderValidation(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := postDiscover(t, h, paperRequest(), map[string]string{api.PriorityHeader: "urgent"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var apiErr api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeInvalidRequest {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeInvalidRequest)
	}
}

// TestRetiredWireFieldIgnored: the wire fields "parallelism" and "executor"
// are gone, and a body from a client that still sends one — any value — is
// answered like the same body without it, on the unary, stream and session
// refine endpoints.
func TestRetiredWireFieldIgnored(t *testing.T) {
	h := testServer(t).Handler()
	// round answers one body on one endpoint: the response of the unary and
	// refine endpoints, the done event's result of the stream. Each refine
	// opens a fresh session, so every round is cold.
	round := func(endpoint, body string) api.DiscoverResponse {
		t.Helper()
		path := "/api/v1" + endpoint
		if endpoint == "/session/refine" {
			path = "/api/v1/session/" + createSession(t, h).SessionID + "/refine"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200 (body %s)", endpoint, rec.Code, rec.Body.String())
		}
		if endpoint != "/discover/stream" {
			var resp api.DiscoverResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			return resp
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var done api.StreamEvent
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil || done.Result == nil {
			t.Fatalf("stream: last line %q is no done event (%v)", lines[len(lines)-1], err)
		}
		return *done.Result
	}
	sqls := func(resp api.DiscoverResponse) []string {
		var out []string
		for _, m := range resp.Mappings {
			out = append(out, m.SQL)
		}
		return out
	}
	req := paperRequest()
	for endpoint, v := range map[string]any{
		"/discover":        req,
		"/discover/stream": req,
		"/session/refine":  api.RefineRequest{NumColumns: req.NumColumns, Samples: req.Samples, Metadata: req.Metadata},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := round(endpoint, string(body))
		if len(want.Mappings) == 0 {
			t.Fatalf("%s: the plain body found no mappings", endpoint)
		}
		for _, field := range []string{`"parallelism":4`, `"parallelism":-2`, `"executor":"gpu"`, `"executor":"mem"`} {
			got := round(endpoint, "{"+field+","+string(body[1:]))
			if got.Validations != want.Validations || !slices.Equal(sqls(got), sqls(want)) {
				t.Errorf("%s with %s: %d validations, mappings %q; without the field %d and %q",
					endpoint, field, got.Validations, sqls(got), want.Validations, sqls(want))
			}
		}
	}
}

// TestStatsEndpoint pins the observability surface: after one admitted
// round, GET /api/v1/stats reports the admission counters, the tenant
// breakdown and one latency entry per priority class.
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	if rec := postDiscover(t, h, paperRequest(), map[string]string{api.TenantHeader: "acme"}); rec.Code != http.StatusOK {
		t.Fatalf("discover status = %d: %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.MaxConcurrent <= 0 || stats.Admission.MaxQueue <= 0 {
		t.Errorf("budgets not echoed: %+v", stats.Admission)
	}
	if stats.Admission.Admitted < 1 {
		t.Errorf("admitted = %d, want >= 1", stats.Admission.Admitted)
	}
	if len(stats.Tenants) == 0 || stats.Tenants[0].Tenant != "acme" {
		t.Errorf("tenants = %+v, want acme first (sorted)", stats.Tenants)
	}
	if len(stats.Latency) != 3 {
		t.Fatalf("latency entries = %d, want 3", len(stats.Latency))
	}
	// One entry per class in dispatch order; the one round ran in the
	// normal class, and a class without traffic reads zeros.
	for i, want := range []string{api.PriorityInteractive, api.PriorityNormal, api.PriorityBatch} {
		l := stats.Latency[i]
		switch {
		case l.Priority != want:
			t.Errorf("latency[%d] = %+v, want class %q", i, l, want)
		case want == api.PriorityNormal && (l.Count != 1 || l.P50Ms <= 0 || l.P99Ms != l.P50Ms):
			t.Errorf("normal-class latency = %+v, want count 1 and p99 = p50 > 0", l)
		case want != api.PriorityNormal && l != (api.LatencyStats{Priority: want}):
			t.Errorf("idle class latency = %+v, want zeros", l)
		}
	}

	// Wrong method gets the structured 405.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/stats", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats = %d, want 405", rec.Code)
	}
}

// wedgedWriter emulates a consumer whose socket never drains: Write
// blocks until the armed write deadline passes, then fails with a timeout
// — exactly what net/http's ResponseController produces for a wedged
// connection.
type wedgedWriter struct {
	mu       sync.Mutex
	deadline time.Time
	header   http.Header
	wrote    int
}

func (w *wedgedWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *wedgedWriter) WriteHeader(int) {}

func (w *wedgedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	d := w.deadline
	w.wrote++
	w.mu.Unlock()
	if d.IsZero() {
		// No deadline armed: simulate an indefinitely wedged socket, but
		// bail out after a generous bound so a regression fails instead of
		// hanging the test binary.
		d = time.Now().Add(30 * time.Second)
	}
	time.Sleep(time.Until(d))
	return 0, os.ErrDeadlineExceeded
}

func (w *wedgedWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}

// TestStreamStallCancelsOwnRound pins the backpressure contract: a
// streaming consumer that cannot complete a single write within
// StreamWriteTimeout has its round cancelled and counted as a stall —
// and only its own round: a healthy stream right after completes
// normally.
func TestStreamStallCancelsOwnRound(t *testing.T) {
	s := testServer(t)
	s.StreamBuffer = 1
	s.StreamWriteTimeout = 50 * time.Millisecond
	h := s.Handler()

	body, err := json.Marshal(paperRequest())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := &wedgedWriter{}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/discover/stream", strings.NewReader(string(body))))
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stalled stream did not cancel its round")
	}
	if got := s.streamStalls.Load(); got != 1 {
		t.Errorf("streamStalls = %d, want 1", got)
	}

	// The stall cost exactly that round: a healthy consumer streams to
	// completion afterwards.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover/stream", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy stream status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"event":"done"`) {
		t.Errorf("healthy stream missing done event: %s", rec.Body.String())
	}
	if got := s.streamStalls.Load(); got != 1 {
		t.Errorf("streamStalls after healthy stream = %d, want still 1", got)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
