package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStructuredAPIErrors is the contract of the JSON API's failure mode:
// every bad request to /api/v1/sample, /api/v1/discover and /api/v1/discover/stream
// comes back as a JSON body carrying both a human-readable "error" and a
// machine-readable "code" — never a bare non-JSON status page.
func TestStructuredAPIErrors(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"sample unknown dataset", http.MethodGet, "/api/v1/sample?db=atlantis&table=Lake", "", http.StatusBadRequest, "unknown_database"},
		{"sample unknown table", http.MethodGet, "/api/v1/sample?db=mondial&table=Spaceship", "", http.StatusBadRequest, "unknown_table"},
		{"sample wrong method", http.MethodPost, "/api/v1/sample?db=mondial&table=Lake", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"discover unknown dataset", http.MethodPost, "/api/v1/discover",
			`{"database":"atlantis","numColumns":1,"samples":[["x"]]}`, http.StatusBadRequest, "unknown_database"},
		{"discover invalid json", http.MethodPost, "/api/v1/discover", `{not json`, http.StatusBadRequest, "bad_request"},
		{"discover bad constraints", http.MethodPost, "/api/v1/discover",
			`{"database":"mondial","numColumns":0,"samples":[]}`, http.StatusBadRequest, "bad_request"},
		{"discover wrong method", http.MethodGet, "/api/v1/discover", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"stream unknown dataset", http.MethodPost, "/api/v1/discover/stream",
			`{"database":"atlantis","numColumns":1,"samples":[["x"]]}`, http.StatusBadRequest, "unknown_database"},
		{"stream invalid json", http.MethodPost, "/api/v1/discover/stream", `{not json`, http.StatusBadRequest, "bad_request"},
		{"stream wrong method", http.MethodGet, "/api/v1/discover/stream", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"datasets wrong method", http.MethodPost, "/api/v1/datasets", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"session unknown dataset", http.MethodPost, "/api/v1/session", `{"database":"atlantis"}`, http.StatusBadRequest, "unknown_database"},
		{"session unknown id", http.MethodGet, "/api/v1/session/deadbeef", "", http.StatusNotFound, "unknown_session"},
		{"session refine unknown id", http.MethodPost, "/api/v1/session/deadbeef/refine", `{}`, http.StatusNotFound, "unknown_session"},
		{"session wrong method", http.MethodGet, "/api/v1/session", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"session id wrong method", http.MethodPut, "/api/v1/session/deadbeef", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"session refine wrong method", http.MethodGet, "/api/v1/session/deadbeef/refine", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q — errors must be JSON, not bare statuses", ct)
			}
			var payload struct {
				Error      string `json:"error"`
				Code       string `json:"code"`
				Candidates int    `json:"candidates"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("body is not JSON: %q (%v)", rec.Body.String(), err)
			}
			if payload.Error == "" {
				t.Error("error message missing")
			}
			if payload.Code != tc.code {
				t.Errorf("code = %q, want %q (error: %s)", payload.Code, tc.code, payload.Error)
			}
			if payload.Candidates != 0 {
				t.Errorf("a refused request enumerated %d candidates", payload.Candidates)
			}
		})
	}
}

// TestSampleLimitValidation audits the /api/v1/sample limit parameter: zero,
// negative and non-numeric sample sizes must come back as a structured
// invalid_request error — pre-fix the handler silently substituted the
// default and returned 200, hiding caller bugs. Valid limits (and the
// implicit default) still serve rows.
func TestSampleLimitValidation(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	cases := []struct {
		name   string
		limit  string // raw query value; "" means omit the parameter
		status int
		code   string // expected error code; "" means success expected
	}{
		{name: "default limit", limit: "", status: http.StatusOK},
		{name: "positive limit", limit: "3", status: http.StatusOK},
		{name: "zero limit", limit: "0", status: http.StatusBadRequest, code: "invalid_request"},
		{name: "negative limit", limit: "-7", status: http.StatusBadRequest, code: "invalid_request"},
		{name: "garbage limit", limit: "lots", status: http.StatusBadRequest, code: "invalid_request"},
		{name: "fractional limit", limit: "2.5", status: http.StatusBadRequest, code: "invalid_request"},
		{name: "overflowing limit", limit: "99999999999999999999", status: http.StatusBadRequest, code: "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := "/api/v1/sample?db=mondial&table=Lake"
			if tc.limit != "" {
				url += "&limit=" + tc.limit
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if tc.code == "" {
				var payload struct {
					Rows [][]string `json:"rows"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
					t.Fatalf("body is not JSON: %q (%v)", rec.Body.String(), err)
				}
				if len(payload.Rows) == 0 {
					t.Error("no rows in a successful sample")
				}
				return
			}
			var payload struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("body is not JSON: %q (%v)", rec.Body.String(), err)
			}
			if payload.Code != tc.code {
				t.Errorf("code = %q, want %q (error: %s)", payload.Code, tc.code, payload.Error)
			}
			if payload.Error == "" {
				t.Error("error message missing")
			}
		})
	}
}
