package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"prism/api"
	"prism/internal/dataset"
)

// testServer uses a reduced Mondial instance registered under the standard
// name so the bundled default-size set is never built during tests.
func testServer(t testing.TB) *Server {
	t.Helper()
	s := New()
	s.TimeLimit = 30 * time.Second
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 9, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDatabase("mondial", db)
	return s
}

func paperRequest() api.DiscoverRequest {
	return api.DiscoverRequest{
		Database:   "mondial",
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
}

func TestHandleDatasets(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/datasets", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string][]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body["datasets"]) != 3 {
		t.Errorf("datasets = %v", body)
	}
	// Wrong method.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/datasets", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/datasets = %d", rec.Code)
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

func TestDiscoverAPIPaperExample(t *testing.T) {
	s := testServer(t)
	body, _ := json.Marshal(paperRequest())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body)
	}
	var resp api.DiscoverResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Failure != "" {
		t.Fatalf("unexpected error/failure: %+v", resp)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no mappings returned")
	}
	found := false
	for _, m := range resp.Mappings {
		if strings.Contains(m.SQL, "geo_lake.Province, Lake.Name, Lake.Area") {
			found = true
			if len(m.ResultRows) == 0 {
				t.Error("result rows should be attached")
			}
		}
	}
	if !found {
		t.Errorf("paper query missing from response: %+v", resp.Mappings)
	}
	if resp.Validations == 0 || resp.Candidates == 0 {
		t.Error("statistics should be populated")
	}
}

func TestDiscoverAPIErrors(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover", strings.NewReader(body)))
		return rec
	}
	if rec := post("{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid JSON status = %d", rec.Code)
	}
	if rec := post(`{"database":"unknown-db","numColumns":1,"samples":[["x"]]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown database status = %d", rec.Code)
	}
	if rec := post(`{"database":"mondial","numColumns":0,"samples":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad spec status = %d", rec.Code)
	}
	// A keyword that exists nowhere: discovery fails with 422.
	if rec := post(`{"database":"mondial","numColumns":1,"samples":[["Unobtainium Atlantis"]]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unmatchable constraint status = %d", rec.Code)
	}
	// GET is not allowed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/discover", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/v1/discover = %d", rec.Code)
	}
	// The API is mounted under /api/v1 only: a valid body at the
	// unversioned path is not found.
	body, _ := json.Marshal(paperRequest())
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/discover", bytes.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /api/discover = %d, want 404", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	html := rec.Body.String()
	for _, want := range []string{"Configuration", "Description", "Start Searching!", "Lake Tahoe", "mondial"} {
		if !strings.Contains(html, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	// Unknown paths 404.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d", rec.Code)
	}
}

func TestDiscoverFormRendersResultSection(t *testing.T) {
	s := testServer(t)
	form := url.Values{
		"database": {"mondial"},
		"columns":  {"3"},
		"policy":   {"bayes"},
		"samples":  {"California || Nevada | Lake Tahoe | "},
		"metadata": {" |  | DataType=='decimal' AND MinValue>='0'"},
	}
	req := httptest.NewRequest(http.MethodPost, "/discover", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	html := rec.Body.String()
	for _, want := range []string{"Result", "SELECT", "geo_lake", "<svg"} {
		if !strings.Contains(html, want) {
			t.Errorf("result page missing %q", want)
		}
	}
	// GET on /discover is rejected.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/discover", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /discover = %d", rec.Code)
	}
}

func TestSplitCellsAndGridParsing(t *testing.T) {
	cells := splitCells("California || Nevada | Lake Tahoe | ")
	if len(cells) != 3 || cells[0] != "California || Nevada" || cells[1] != "Lake Tahoe" || cells[2] != "" {
		t.Errorf("splitCells = %#v", cells)
	}
	cells = splitCells("a | b | c")
	if len(cells) != 3 || cells[1] != "b" {
		t.Errorf("splitCells simple = %#v", cells)
	}
	rows := parseGridText("a | b\n\nc | d\n", 2)
	if len(rows) != 2 || rows[1][0] != "c" {
		t.Errorf("parseGridText = %#v", rows)
	}
	padded := padRow([]string{"x"}, 3)
	if len(padded) != 3 || padded[0] != "x" || padded[2] != "" {
		t.Errorf("padRow = %#v", padded)
	}
	if got := padRow([]string{"x", "y"}, 0); len(got) != 2 {
		t.Errorf("padRow with n=0 should keep cells: %#v", got)
	}
}

func TestRegisterDatabaseOverridesBundled(t *testing.T) {
	s := New()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 1, Countries: 2, ProvincesPerCountry: 1, CitiesPerProvince: 1,
		Lakes: 8, Rivers: 4, Mountains: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDatabase("tiny", db)
	if _, err := s.engine("TINY"); err != nil {
		t.Errorf("registered database lookup should be case-insensitive: %v", err)
	}
	if _, err := s.engine("never-registered"); err == nil {
		t.Error("unknown database should error")
	}
}

func BenchmarkDiscoverAPI(b *testing.B) {
	s := testServer(b)
	body, _ := json.Marshal(paperRequest())
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/discover", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}
