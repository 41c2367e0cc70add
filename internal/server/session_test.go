package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prism/api"
)

// doJSON posts a JSON body and decodes the response into out.
func doJSON(t *testing.T, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(payload)))
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func createSession(t *testing.T, h http.Handler) api.SessionResponse {
	t.Helper()
	var sr api.SessionResponse
	rec := doJSON(t, h, http.MethodPost, "/api/v1/session", api.SessionCreateRequest{Database: "mondial"}, &sr)
	if rec.Code != http.StatusOK || sr.SessionID == "" {
		t.Fatalf("create session: status=%d body=%s", rec.Code, rec.Body)
	}
	return sr
}

func TestSessionCreateRefineLoop(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	sr := createSession(t, h)
	refinePath := "/api/v1/session/" + sr.SessionID + "/refine"

	// Round 1: seed with the full paper specification.
	seed := api.RefineRequest{
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
	var cold api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, seed, &cold); rec.Code != http.StatusOK {
		t.Fatalf("seed round: status=%d body=%s", rec.Code, rec.Body)
	}
	if cold.Round != 1 || cold.SessionID != sr.SessionID {
		t.Errorf("seed round meta: %+v", cold)
	}
	if len(cold.Mappings) == 0 || cold.Validations == 0 {
		t.Fatalf("seed round found nothing: %+v", cold)
	}
	// Every validation is written back, and nothing else.
	if cold.Cache == nil || cold.Cache.Hits != 0 || cold.Cache.Stores != cold.Validations {
		t.Errorf("seed round cache counters: %+v", cold.Cache)
	}

	// Round 2: a delta refining the Area column must reuse the cached text
	// outcomes — strictly fewer validations, hits > 0.
	refine := api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}},
	}
	var warm api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, refine, &warm); rec.Code != http.StatusOK {
		t.Fatalf("refine round: status=%d body=%s", rec.Code, rec.Body)
	}
	if warm.Round != 2 {
		t.Errorf("refine round = %d, want 2", warm.Round)
	}
	if warm.Cache == nil || warm.Cache.Hits == 0 {
		t.Fatalf("refine round reused nothing: %+v", warm.Cache)
	}
	if warm.Validations >= cold.Validations {
		t.Errorf("refine validations = %d, cold = %d — want strictly fewer", warm.Validations, cold.Validations)
	}

	// Round 3: clearing the refinement returns to known constraints — a
	// fully warm round with zero validations and the cold mapping set.
	back := api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: ""}}},
	}
	var again api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, back, &again); rec.Code != http.StatusOK {
		t.Fatalf("third round: status=%d body=%s", rec.Code, rec.Body)
	}
	if again.Validations != 0 {
		t.Errorf("fully warm round executed %d validations", again.Validations)
	}
	if len(again.Mappings) != len(cold.Mappings) {
		t.Fatalf("mapping count changed: %d vs %d", len(again.Mappings), len(cold.Mappings))
	}
	for i := range again.Mappings {
		if again.Mappings[i].SQL != cold.Mappings[i].SQL {
			t.Errorf("mapping %d differs: %q vs %q", i, again.Mappings[i].SQL, cold.Mappings[i].SQL)
		}
	}

	// Session info reflects the rounds and lifetime cache stats.
	var info api.SessionResponse
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+sr.SessionID, nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("info: status=%d", rec.Code)
	}
	if info.Rounds != 3 || info.Cache.Hits == 0 {
		t.Errorf("info = %+v", info)
	}

	// Delete ends the session; refines then 404 with a structured code.
	if rec := doJSON(t, h, http.MethodDelete, "/api/v1/session/"+sr.SessionID, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status=%d", rec.Code)
	}
	var apiErr api.Error
	if rec := doJSON(t, h, http.MethodPost, refinePath, refine, &apiErr); rec.Code != http.StatusNotFound || apiErr.Code != "unknown_session" {
		t.Errorf("refine after delete: status=%d body=%+v", rec.Code, apiErr)
	}
}

func TestSessionRefineInputErrors(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	sr := createSession(t, h)
	refinePath := "/api/v1/session/" + sr.SessionID + "/refine"

	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"delta before seeding", api.RefineRequest{Delta: &api.Delta{RemoveSamples: []int{0}}}, http.StatusBadRequest, "bad_request"},
		{"neither spec nor delta", api.RefineRequest{}, http.StatusBadRequest, "bad_request"},
		{"both spec and delta", api.RefineRequest{
			NumColumns: 1, Samples: [][]string{{"x"}},
			Delta: &api.Delta{RemoveSamples: []int{0}},
		}, http.StatusBadRequest, "bad_request"},
		{"bad constraints", api.RefineRequest{NumColumns: 2, Samples: [][]string{{">=", "x"}}}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var apiErr api.Error
			rec := doJSON(t, h, http.MethodPost, refinePath, tc.body, &apiErr)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if apiErr.Code != tc.code {
				t.Errorf("code = %q, want %q (body %s)", apiErr.Code, tc.code, rec.Body)
			}
		})
	}

	// An out-of-range delta against a seeded session is rejected without
	// running a round (400, not 422).
	seed := api.RefineRequest{NumColumns: 3,
		Samples:  [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata: []string{"", "", "DataType=='decimal' AND MinValue>='0'"}}
	if rec := doJSON(t, h, http.MethodPost, refinePath, seed, nil); rec.Code != http.StatusOK {
		t.Fatalf("seed: %d", rec.Code)
	}
	bad := api.RefineRequest{Delta: &api.Delta{RemoveSamples: []int{9}}}
	var resp api.DiscoverResponse
	if rec := doJSON(t, h, http.MethodPost, refinePath, bad, &resp); rec.Code != http.StatusBadRequest || resp.Error == "" {
		t.Errorf("bad delta: status=%d body=%+v", rec.Code, resp)
	}
}

func TestSessionCreateUnknownDatabase(t *testing.T) {
	s := testServer(t)
	var apiErr api.Error
	rec := doJSON(t, s.Handler(), http.MethodPost, "/api/v1/session", api.SessionCreateRequest{Database: "nope"}, &apiErr)
	if rec.Code != http.StatusBadRequest || apiErr.Code != "unknown_database" {
		t.Errorf("status=%d body=%+v", rec.Code, apiErr)
	}
}

func TestSessionStoreTTLAndLRUEviction(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	clock := time.Now()
	s.sessions.now = func() time.Time { return clock }

	// Fill the store, one session a second: a is the oldest, b the next.
	a := createSession(t, h)
	clock = clock.Add(time.Second)
	b := createSession(t, h)
	for i := 2; i < maxSessions; i++ {
		clock = clock.Add(time.Second)
		createSession(t, h)
	}
	if s.sessions.len() != maxSessions {
		t.Fatalf("store holds %d sessions, want %d", s.sessions.len(), maxSessions)
	}

	// Touch a so b is least recently used, then exceed the capacity: the
	// next session must evict b, keep a.
	clock = clock.Add(time.Second)
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+a.SessionID, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("touch a: %d", rec.Code)
	}
	clock = clock.Add(time.Second)
	c := createSession(t, h)
	if s.sessions.len() != maxSessions {
		t.Fatalf("store holds %d sessions, want %d", s.sessions.len(), maxSessions)
	}
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+b.SessionID, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("b should have been LRU-evicted, got %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+a.SessionID, nil, nil); rec.Code != http.StatusOK {
		t.Errorf("a should have survived, got %d", rec.Code)
	}

	// Idle for exactly the TTL: c lives, and the read refreshes it.
	clock = clock.Add(sessionTTL)
	var info api.SessionResponse
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+c.SessionID, nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("c idle for the TTL: status=%d", rec.Code)
	}
	if info.TTLMs != sessionTTL.Milliseconds() {
		t.Errorf("ttlMs = %d, want %d", info.TTLMs, sessionTTL.Milliseconds())
	}

	// Idle past the TTL: everything is gone, with the structured code.
	clock = clock.Add(sessionTTL + time.Second)
	var apiErr api.Error
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/session/"+c.SessionID, nil, &apiErr); rec.Code != http.StatusNotFound || apiErr.Code != "unknown_session" {
		t.Errorf("c after TTL: status=%d body=%+v", rec.Code, apiErr)
	}
	if s.sessions.len() != 0 {
		t.Errorf("store holds %d sessions after TTL, want 0", s.sessions.len())
	}
}
