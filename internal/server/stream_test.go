package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prism/api"
)

func postStream(t *testing.T, s *Server, body []byte, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/discover/stream", bytes.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestDiscoverStreamNDJSON(t *testing.T) {
	s := testServer(t)
	body, _ := json.Marshal(paperRequest())
	rec := postStream(t, s, body, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	var events []api.StreamEvent
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var ev api.StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) < 4 {
		t.Fatalf("expected a multi-event stream, got %d events", len(events))
	}

	last := events[len(events)-1]
	if last.Event != "done" {
		t.Fatalf("stream must end with done, got %q", last.Event)
	}
	if last.Result == nil || last.Result.Error != "" || len(last.Result.Mappings) == 0 {
		t.Fatalf("done event should carry the full result: %+v", last.Result)
	}

	mappings, doneSeen := 0, false
	for _, ev := range events {
		switch ev.Event {
		case "mapping":
			if doneSeen {
				t.Error("mapping after done")
			}
			if ev.Mapping == nil || !strings.Contains(ev.Mapping.SQL, "SELECT") {
				t.Errorf("mapping event without SQL: %+v", ev)
			}
			mappings++
		case "done":
			doneSeen = true
		}
	}
	if mappings == 0 {
		t.Error("no mappings were streamed incrementally")
	}
	if mappings != len(last.Result.Mappings) {
		t.Errorf("streamed %d mappings, final result has %d", mappings, len(last.Result.Mappings))
	}
}

func TestDiscoverStreamSSE(t *testing.T) {
	s := testServer(t)
	body, _ := json.Marshal(paperRequest())
	rec := postStream(t, s, body, "text/event-stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{"event: filters\n", "event: mapping\n", "event: done\n", "data: {"} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE output missing %q:\n%s", want, text)
		}
	}
}

func TestDiscoverStreamErrors(t *testing.T) {
	s := testServer(t)
	if rec := postStream(t, s, []byte("{not json"), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid JSON status = %d", rec.Code)
	}
	body, _ := json.Marshal(api.DiscoverRequest{Database: "unknown-db", NumColumns: 1, Samples: [][]string{{"x"}}})
	if rec := postStream(t, s, body, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown database status = %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/discover/stream", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}
	// An unmatchable constraint still streams, ending in a done event whose
	// result carries the error (headers are already committed by then).
	body, _ = json.Marshal(api.DiscoverRequest{Database: "mondial", NumColumns: 1, Samples: [][]string{{"Unobtainium Atlantis"}}})
	rec = postStream(t, s, body, "")
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last api.StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "done" || last.Result == nil || last.Result.Error == "" {
		t.Errorf("failed rounds should end with an error-carrying done event: %+v", last)
	}
}

func TestDiscoverStreamRequestOptions(t *testing.T) {
	s := testServer(t)
	req := paperRequest()
	req.MaxResults = 1
	req.TimeoutMs = 20_000
	body, _ := json.Marshal(req)
	rec := postStream(t, s, body, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last api.StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Result == nil || len(last.Result.Mappings) != 1 {
		t.Errorf("maxResults not honoured over the stream: %+v", last.Result)
	}
}
