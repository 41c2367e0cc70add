package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"prism/api"
)

// TestDiscoverAPIExecutorSelection checks that the JSON API threads the
// executor choice through to the round and echoes the backend that ran.
func TestDiscoverAPIExecutorSelection(t *testing.T) {
	s := testServer(t)
	for _, executor := range []string{"mem", "columnar", ""} {
		req := paperRequest()
		req.Executor = executor
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("executor %q: status = %d body = %s", executor, rec.Code, rec.Body)
		}
		var resp api.DiscoverResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := executor
		if want == "" {
			want = "columnar" // the engine default
		}
		if resp.Executor != want {
			t.Errorf("executor %q: response reports %q", executor, resp.Executor)
		}
		if len(resp.Mappings) == 0 {
			t.Errorf("executor %q: no mappings", executor)
		}
	}

	// An unknown backend is a client error, reported with the round error.
	req := paperRequest()
	req.Executor = "gpu"
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover", bytes.NewReader(body)))
	if rec.Code == http.StatusOK {
		t.Errorf("unknown executor should not return 200: %s", rec.Body)
	}
}

// TestHandleSample checks the table-preview endpoint.
func TestHandleSample(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/sample?db=mondial&table=Lake&limit=4", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body)
	}
	var body struct {
		Table string     `json:"table"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Table != "Lake" || len(body.Rows) != 4 {
		t.Errorf("sample = %+v", body)
	}

	// Unknown table and database are client errors.
	for _, q := range []string{"db=mondial&table=NoSuch", "db=nosuch&table=Lake"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/sample?"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d", q, rec.Code)
		}
	}
	// Wrong method.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sample", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/sample = %d", rec.Code)
	}
}
