package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"prism"
	"prism/api"
	"prism/internal/dataset"
	"prism/internal/server"
)

// testSetup boots an httptest server over a reduced Mondial registered
// under the standard name, plus a client pointed at it and the same
// in-process engine for equivalence checks.
type testSetup struct {
	srv *httptest.Server
	c   *Client
	eng *prism.Engine
}

func newTestSetup(t testing.TB) *testSetup {
	t.Helper()
	cfg := dataset.MondialConfig{
		Seed: 9, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	}
	db, err := dataset.Mondial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	s.TimeLimit = 30 * time.Second
	s.RegisterDatabase("mondial", db)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The equivalence engine preprocesses its own copy of the same data.
	db2, err := dataset.Mondial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := prism.Open("mondial", prism.WithDatabase(db2))
	if err != nil {
		t.Fatal(err)
	}
	return &testSetup{srv: srv, c: c, eng: eng}
}

func paperWireSpec(t testing.TB) *api.Spec {
	t.Helper()
	spec, err := prism.NewSpec(3).
		Sample(prism.OneOf("California", "Nevada"), prism.Exact("Lake Tahoe"), prism.Any()).
		Metadata(2, prism.DataTypeIs("decimal"), prism.MinValueAtLeast(0)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := api.EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func paperGridRequest() api.DiscoverRequest {
	return api.DiscoverRequest{
		Database:   "mondial",
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
}

func TestNewValidatesBaseURL(t *testing.T) {
	if _, err := New("ftp://host"); err == nil {
		t.Error("non-http scheme should fail")
	}
	if _, err := New("http://host:1234/"); err != nil {
		t.Errorf("trailing slash should be fine: %v", err)
	}
	c, err := New("http://host:1234")
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://host:1234/api/v1" {
		t.Errorf("BaseURL = %q", c.BaseURL())
	}
}

func TestDatasets(t *testing.T) {
	ts := newTestSetup(t)
	names, err := ts.c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("datasets = %v", names)
	}
}

func TestSampleRows(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()
	rows, err := ts.c.SampleRows(ctx, "mondial", "Lake", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// Cell-for-cell identical to the in-process preview.
	local, err := ts.eng.SampleRows("Lake", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for ci, cell := range row {
			if cell != local[i][ci].String() {
				t.Errorf("row %d cell %d: %q vs local %q", i, ci, cell, local[i][ci])
			}
		}
	}

	// Sentinel mapping across the wire.
	if _, err := ts.c.SampleRows(ctx, "mondial", "Spaceship", 5); !errors.Is(err, prism.ErrUnknownTable) {
		t.Errorf("unknown table error = %v", err)
	}
	if _, err := ts.c.SampleRows(ctx, "atlantis", "Lake", 5); !errors.Is(err, prism.ErrUnknownDatabase) {
		t.Errorf("unknown database error = %v", err)
	}
}

// mappingsKey flattens a mapping list (SQL order and preview rows) for
// byte-identity comparisons.
func mappingsKey(ms []api.Mapping) string {
	var b bytes.Buffer
	for _, m := range ms {
		b.WriteString(m.SQL)
		b.WriteByte('\n')
		for _, row := range m.ResultRows {
			b.WriteString("  " + strings.Join(row, "|") + "\n")
		}
	}
	return b.String()
}

// reportKey renders an in-process report in the same shape.
func reportKey(r *prism.Report) string {
	var b bytes.Buffer
	for _, m := range r.Mappings {
		b.WriteString(m.SQL)
		b.WriteByte('\n')
		if m.Result != nil {
			for _, row := range m.Result.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				b.WriteString("  " + strings.Join(cells, "|") + "\n")
			}
		}
	}
	return b.String()
}

// TestThreeWayEquivalence is the acceptance check of the versioned API:
// for the same specification, an in-process Engine.Discover round, a raw
// HTTP round sending the demo's string grids, and a remote round through
// the client (using the structured spec codec) must return byte-identical
// mapping sets, SQL order and result previews.
func TestThreeWayEquivalence(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()

	// Path 1: in-process.
	spec := ts.paperSpec(t)
	report, err := ts.eng.Discover(ctx, spec, prism.Options{
		IncludeResults: true, ResultLimit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := reportKey(report)
	if want == "" {
		t.Fatal("in-process round found nothing")
	}

	// Path 2: raw HTTP with string grids, no client SDK.
	body, _ := json.Marshal(paperGridRequest())
	httpResp, err := http.Post(ts.srv.URL+api.PathPrefix+"/discover", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("raw route status = %d", httpResp.StatusCode)
	}
	var raw api.DiscoverResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if got := mappingsKey(raw.Mappings); got != want {
		t.Errorf("raw route diverges from in-process:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Path 3: the client with the structured spec codec.
	req := api.DiscoverRequest{Database: "mondial", Spec: paperWireSpec(t)}
	resp, err := ts.c.Discover(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := mappingsKey(resp.Mappings); got != want {
		t.Errorf("v1 client diverges from in-process:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if resp.Candidates != report.CandidatesEnumerated || resp.Validations != report.Validations {
		t.Errorf("statistics diverge: remote %d/%d, local %d/%d",
			resp.Candidates, resp.Validations, report.CandidatesEnumerated, report.Validations)
	}
}

func (ts *testSetup) paperSpec(t testing.TB) *prism.Spec {
	t.Helper()
	spec, err := prism.ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDiscoverGridAndSpecAgree(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()
	fromGrids, err := ts.c.Discover(ctx, paperGridRequest())
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := ts.c.Discover(ctx, api.DiscoverRequest{
		Database: "mondial", Spec: paperWireSpec(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mappingsKey(fromGrids.Mappings) != mappingsKey(fromSpec.Mappings) {
		t.Error("grid and structured-spec rounds diverge")
	}
	// Sending both forms at once is rejected.
	both := paperGridRequest()
	both.Spec = paperWireSpec(t)
	if _, err := ts.c.Discover(ctx, both); err == nil {
		t.Error("grids plus structured spec should be rejected")
	}
}

func TestDiscoverErrors(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()

	req := paperGridRequest()
	req.Database = "atlantis"
	_, err := ts.c.Discover(ctx, req)
	if !errors.Is(err, prism.ErrUnknownDatabase) {
		t.Errorf("unknown database = %v", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusBadRequest {
		t.Errorf("envelope = %+v", apiErr)
	}

	req = paperGridRequest()
	req.Policy = "nonsense"
	if _, err := ts.c.Discover(ctx, req); !errors.Is(err, prism.ErrInvalidRequest) {
		t.Errorf("unknown policy = %v", err)
	}

	// An old client's body with the retired "executor" field is answered as
	// if it did not carry it.
	want, err := ts.c.Discover(ctx, paperGridRequest())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(paperGridRequest())
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(`{"executor":"gpu",`), body[1:]...)
	httpResp, err := http.Post(ts.srv.URL+api.PathPrefix+"/discover", "application/json", bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var got api.DiscoverResponse
	err = json.NewDecoder(httpResp.Body).Decode(&got)
	httpResp.Body.Close()
	if err != nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("retired executor field: status %d, %v", httpResp.StatusCode, err)
	}
	if got.Validations != want.Validations || len(got.Mappings) != len(want.Mappings) {
		t.Errorf("retired executor field: %d validations, %d mappings; without it %d and %d",
			got.Validations, len(got.Mappings), want.Validations, len(want.Mappings))
	}

	// A round that finds nothing fails with 422 and a bad_request code but
	// still reports its statistics.
	resp, err := ts.c.Discover(ctx, api.DiscoverRequest{
		Database: "mondial", NumColumns: 1,
		Samples: [][]string{{"Unobtainium Atlantis"}},
	})
	if err == nil {
		t.Fatal("unmatchable constraint should fail")
	}
	if errors.As(err, &apiErr) && apiErr.HTTPStatus != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", apiErr.HTTPStatus)
	}
	if resp == nil {
		t.Fatal("failed rounds should still return the partial response")
	}
}

func TestDiscoverStreamRoundTrip(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()
	events, err := ts.c.DiscoverStream(ctx, paperGridRequest())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []prism.EventKind
	var mappings []api.Mapping
	var final *api.DiscoverResponse
	for ev := range events {
		kinds = append(kinds, ev.Kind)
		switch ev.Kind {
		case prism.EventMapping:
			if ev.Mapping == nil {
				t.Fatal("mapping event without a mapping")
			}
			mappings = append(mappings, *ev.Mapping)
		case prism.EventDone:
			if ev.Err != nil {
				t.Fatalf("done event error: %v", ev.Err)
			}
			final = ev.Result
		}
	}
	if final == nil {
		t.Fatal("stream ended without a done result")
	}
	if len(mappings) == 0 || len(mappings) != len(final.Mappings) {
		t.Fatalf("streamed %d mappings, final has %d", len(mappings), len(final.Mappings))
	}
	// Streamed mappings arrive in confirmation order; the final report is
	// sorted simplest-first. Same set, possibly different order.
	streamedSet := make(map[string]bool)
	for _, m := range mappings {
		streamedSet[mappingsKey([]api.Mapping{m})] = true
	}
	for _, m := range final.Mappings {
		if !streamedSet[mappingsKey([]api.Mapping{m})] {
			t.Errorf("final mapping was never streamed: %s", m.SQL)
		}
	}
	if kinds[len(kinds)-1] != prism.EventDone {
		t.Errorf("last event = %s, want done", kinds[len(kinds)-1])
	}
	sawProgress := false
	for _, k := range kinds {
		if k == prism.EventProgress {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Error("no progress events decoded")
	}

	// Invalid requests fail on the call, not in the stream.
	bad := paperGridRequest()
	bad.Database = "atlantis"
	if _, err := ts.c.DiscoverStream(ctx, bad); !errors.Is(err, prism.ErrUnknownDatabase) {
		t.Errorf("stream with unknown database = %v", err)
	}
}

func TestSessionLifecycleRoundTrip(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()

	sess, err := ts.c.CreateSession(ctx, "mondial")
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || sess.Database() != "mondial" {
		t.Fatalf("session identity: %q %q", sess.ID(), sess.Database())
	}

	// Round 1: seed with the structured spec.
	cold, err := sess.Refine(ctx, api.RefineRequest{Spec: paperWireSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Round != 1 || len(cold.Mappings) == 0 || cold.SessionID != sess.ID() {
		t.Fatalf("cold round: %+v", cold)
	}
	if cold.Cache == nil || cold.Cache.Stores == 0 {
		t.Fatalf("cold round cache: %+v", cold.Cache)
	}

	// Round 2: a delta refine reuses cached outcomes.
	warm, err := sess.Refine(ctx, api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Round != 2 || warm.Cache == nil || warm.Cache.Hits == 0 {
		t.Fatalf("warm round reused nothing: %+v", warm.Cache)
	}
	if warm.Validations >= cold.Validations {
		t.Errorf("warm validations = %d, cold = %d", warm.Validations, cold.Validations)
	}

	// Round 3: clearing the refinement replays the cold round from cache.
	back, err := sess.Refine(ctx, api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: ""}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.Validations != 0 {
		t.Errorf("fully warm round executed %d validations", back.Validations)
	}
	if mappingsKey(back.Mappings) != mappingsKey(cold.Mappings) {
		t.Error("replayed round diverges from the cold round")
	}

	// A rejected delta reports bad_request and does not consume a round.
	if _, err := sess.Refine(ctx, api.RefineRequest{
		Delta: &api.Delta{RemoveSamples: []int{99}},
	}); err == nil {
		t.Error("out-of-range delta should fail")
	}

	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != 3 || info.Cache.Hits == 0 || info.TTLMs <= 0 {
		t.Errorf("info = %+v", info)
	}

	// A round that runs but fails (nothing matches) still commits the
	// refined spec server-side; the 422 response must carry the committed
	// round count and session id so clients can resync instead of
	// re-applying their delta.
	failResp, err := sess.Refine(ctx, api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 1, Cell: "Unobtainium Atlantis"}}},
	})
	if err == nil {
		t.Error("unmatchable refine should fail")
	}
	if failResp == nil || failResp.Round != 4 || failResp.SessionID != sess.ID() {
		t.Errorf("failed round should carry the committed round count: %+v", failResp)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Info(ctx); !errors.Is(err, prism.ErrUnknownSession) {
		t.Errorf("info after close = %v", err)
	}
	if _, err := sess.Refine(ctx, api.RefineRequest{Spec: paperWireSpec(t)}); !errors.Is(err, prism.ErrUnknownSession) {
		t.Errorf("refine after close = %v", err)
	}
	if err := sess.Close(ctx); !errors.Is(err, prism.ErrUnknownSession) {
		t.Errorf("double close = %v", err)
	}

	if _, err := ts.c.CreateSession(ctx, "atlantis"); !errors.Is(err, prism.ErrUnknownDatabase) {
		t.Errorf("create over unknown database = %v", err)
	}
}

// TestSessionMatchesInProcessSession: the remote session protocol must
// reproduce the in-process Session byte for byte across a refine loop.
func TestSessionMatchesInProcessSession(t *testing.T) {
	ts := newTestSetup(t)
	ctx := context.Background()
	opts := prism.Options{IncludeResults: true, ResultLimit: 10}

	local := ts.eng.NewSession(ctx)
	defer local.Close()
	spec := ts.paperSpec(t)
	localCold, err := local.Discover(ctx, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := prism.Delta{UpdateCells: []prism.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}}
	localWarm, err := local.Refine(ctx, delta, opts)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := ts.c.CreateSession(ctx, "mondial")
	if err != nil {
		t.Fatal(err)
	}
	remoteCold, err := remote.Refine(ctx, api.RefineRequest{Spec: paperWireSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	remoteWarm, err := remote.Refine(ctx, api.RefineRequest{
		Delta: &api.Delta{UpdateCells: []api.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mappingsKey(remoteCold.Mappings), reportKey(localCold); got != want {
		t.Errorf("cold rounds diverge:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	if got, want := mappingsKey(remoteWarm.Mappings), reportKey(localWarm); got != want {
		t.Errorf("warm rounds diverge:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	if remoteWarm.Cache.Hits != localWarm.Cache.Hits {
		t.Errorf("cache hits diverge: remote %d, local %d", remoteWarm.Cache.Hits, localWarm.Cache.Hits)
	}
}

// TestStreamCancellation: cancelling the context tears the stream down
// with a terminal done event instead of hanging.
func TestStreamCancellation(t *testing.T) {
	ts := newTestSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	events, err := ts.c.DiscoverStream(ctx, paperGridRequest())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // closed — done event may or may not have been seen
			}
		case <-deadline:
			t.Fatal("stream did not terminate after cancellation")
		}
	}
}

func TestProgressDecoding(t *testing.T) {
	// decodeStreamEvent maps every wire field onto prism.Progress.
	wire := api.StreamEvent{
		Event: "progress", Candidates: 7, Filters: 5, Validations: 3,
		Confirmed: 2, Pruned: 1, Unresolved: 4, ElapsedMS: 1500, RemainingMS: 500,
	}
	ev := decodeStreamEvent(wire)
	want := prism.Progress{
		CandidatesEnumerated: 7, FiltersGenerated: 5, Validations: 3,
		Confirmed: 2, Pruned: 1, Unresolved: 4,
		Elapsed: 1500 * time.Millisecond, TimeRemaining: 500 * time.Millisecond,
	}
	if ev.Kind != prism.EventProgress || !reflect.DeepEqual(ev.Progress, want) {
		t.Errorf("decoded = %+v, want %+v", ev.Progress, want)
	}
}
