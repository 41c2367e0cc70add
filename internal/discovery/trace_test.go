package discovery

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"prism/internal/constraint"
	"prism/internal/obs"
)

// TestDiscoverTrace pins the round-trace contract: with Options.Trace the
// report carries a span tree covering every phase, the schedule span has
// per-batch validate children annotated with executor stats, and the
// root's final attributes agree with the report counters.
func TestDiscoverTrace(t *testing.T) {
	e := NewEngine(smallMondial(t))
	report, err := e.Discover(context.Background(), paperSpec(t), Options{Trace: true})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	trace := report.Trace
	if trace == nil {
		t.Fatal("Options.Trace set but Report.Trace is nil")
	}
	if trace.Name != "round" {
		t.Errorf("root span = %q, want \"round\"", trace.Name)
	}
	if trace.Duration <= 0 {
		t.Error("root span has no duration; End was not called")
	}
	for _, phase := range []string{"related", "enumerate", "decompose", "schedule", "assemble"} {
		sp := trace.Find(phase)
		if sp == nil {
			t.Errorf("phase span %q missing", phase)
			continue
		}
		if sp.Duration <= 0 {
			t.Errorf("phase span %q has no duration", phase)
		}
	}
	if got := trace.Find("enumerate").Attr("candidates"); got != report.CandidatesEnumerated {
		t.Errorf("enumerate candidates attr = %v, report says %d", got, report.CandidatesEnumerated)
	}
	if got := trace.Attr("validations"); got != report.Validations {
		t.Errorf("root validations attr = %v, report says %d", got, report.Validations)
	}
	if got := trace.Attr("rowsScanned"); got != report.Cost.RowsScanned {
		t.Errorf("root rowsScanned attr = %v, report says %d", got, report.Cost.RowsScanned)
	}

	// The schedule span fans out into one validate child per validation,
	// carrying executor stats.
	sched := trace.Find("schedule")
	validates := 0
	rows := 0
	for _, c := range sched.Children {
		if c.Name != "validate" {
			continue
		}
		validates++
		if plan, ok := c.Attr("plan").(string); !ok || plan == "" {
			t.Fatalf("validate span without a plan attr: %v", c.Attrs)
		}
		if n, ok := c.Attr("rowsScanned").(int); ok {
			rows += n
		}
	}
	if validates == 0 || validates != report.Validations {
		t.Fatalf("schedule span has %d validate children, the report %d validations", validates, report.Validations)
	}
	if rows != report.Cost.RowsScanned {
		t.Errorf("validate spans sum rowsScanned=%d, report says %d", rows, report.Cost.RowsScanned)
	}
	for _, sp := range []*obs.Span{trace, sched} {
		if got := sp.Attr("selectionsReused"); got != report.Cost.SelectionsReused {
			t.Errorf("%s selectionsReused attr = %v, report says %d", sp.Name, got, report.Cost.SelectionsReused)
		}
	}

	// One estimate span per round (not per filter): a cold round estimates
	// every filter, and the memo shares cells between them.
	estimates := 0
	for _, c := range sched.Children {
		if c.Name == "estimate" {
			estimates++
		}
	}
	if estimates != 1 {
		t.Fatalf("schedule span has %d estimate children, want 1", estimates)
	}
	estimate := sched.Find("estimate")
	if got := estimate.Attr("calls"); got != report.FiltersGenerated {
		t.Errorf("estimate calls attr = %v, report says %d filters", got, report.FiltersGenerated)
	}
	cellSets, _ := estimate.Attr("cell_sets").(int)
	memoHits, _ := estimate.Attr("memo_hits").(int)
	if cellSets <= 0 || cellSets >= report.FiltersGenerated || memoHits <= 0 {
		t.Errorf("estimate cell_sets=%d memo_hits=%d over %d filters: the memo shared nothing", cellSets, memoHits, report.FiltersGenerated)
	}

	// Memory accounting reached the trace (the columnar executor always
	// uses some scratch).
	if v, ok := trace.Attr("scratchBytes").(int); !ok || v <= 0 {
		t.Errorf("root scratchBytes attr = %v, want > 0", trace.Attr("scratchBytes"))
	}

	// The NDJSON dump is one valid JSON object per line with parent links.
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lines := 0
	for sc.Scan() {
		lines++
		var row struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("NDJSON line %d: %v", lines, err)
		}
		if lines == 1 && (row.Name != "round" || row.Parent != 0) {
			t.Errorf("first NDJSON line should be the root: %s", sc.Text())
		}
	}
	if lines < 6 {
		t.Errorf("NDJSON dump has %d spans, want the root plus all phases", lines)
	}
}

// TestReplayTraceEstimatesNothing pins that a round the session cache
// resolves completely asks the estimator for nothing.
func TestReplayTraceEstimatesNothing(t *testing.T) {
	e := NewEngine(smallMondial(t))
	sess := e.NewSession(0)
	opts := Options{Trace: true}
	if _, err := sess.Discover(context.Background(), paperSpec(t), opts); err != nil {
		t.Fatal(err)
	}
	replay, err := sess.Discover(context.Background(), paperSpec(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Validations != 0 {
		t.Fatalf("replay executed %d validations", replay.Validations)
	}
	estimate := replay.Trace.Find("estimate")
	if estimate == nil {
		t.Fatal("replay trace has no estimate span")
	}
	for _, attr := range []string{"calls", "cell_sets", "memo_hits"} {
		if got := estimate.Attr(attr); got != 0 {
			t.Errorf("replay estimate %s = %v, want 0", attr, got)
		}
	}
}

// TestDiscoverTraceOffIsNil pins that untraced rounds (the default) carry
// no trace and pay no span cost.
func TestDiscoverTraceOffIsNil(t *testing.T) {
	e := NewEngine(smallMondial(t))
	report, err := e.Discover(context.Background(), paperSpec(t), Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if report.Trace != nil {
		t.Fatalf("Options.Trace unset but Report.Trace = %v", report.Trace)
	}
}

// TestTraceDoesNotChangeMappings pins the acceptance criterion that
// instrumentation must not change the discovered mapping set.
func TestTraceDoesNotChangeMappings(t *testing.T) {
	e := NewEngine(smallMondial(t))
	plain, err := e.Discover(context.Background(), paperSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := e.Discover(context.Background(), paperSpec(t), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Mappings) != len(traced.Mappings) {
		t.Fatalf("mapping count changed under tracing: %d vs %d", len(plain.Mappings), len(traced.Mappings))
	}
	for i := range plain.Mappings {
		if plain.Mappings[i].SQL != traced.Mappings[i].SQL {
			t.Fatalf("mapping %d changed under tracing:\n%s\nvs\n%s", i, plain.Mappings[i].SQL, traced.Mappings[i].SQL)
		}
	}
}

// TestSelectionMemoReachesTheRound: a round with a value-range cell scans
// each (source column, cell) pair once and reads it back for the other
// filters that carry it — the validate spans say which — the mapping set is
// the reference engine's, and the schedule and cost counters are the same
// on every run.
func TestSelectionMemoReachesTheRound(t *testing.T) {
	db := smallMondial(t)
	e := NewEngine(db)
	spec, err := constraint.ParseGrid(3, [][]string{{"California || Nevada", "", "[100, 600]"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Trace: true}
	first, err := e.Discover(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost.SelectionsReused == 0 {
		t.Fatalf("no selection reused over %d validations: %+v", first.Validations, first.Cost)
	}
	reused := 0
	for _, c := range first.Trace.Find("schedule").Children {
		if n, ok := c.Attr("selectionsReused").(int); ok && c.Name == "validate" {
			reused += n
		}
	}
	if reused != first.Cost.SelectionsReused {
		t.Errorf("validate spans sum selectionsReused=%d, report says %d", reused, first.Cost.SelectionsReused)
	}
	again, err := e.Discover(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Validations != first.Validations || again.Implied != first.Implied ||
		again.Cost.RowsScanned != first.Cost.RowsScanned || again.Cost.SelectionsReused != first.Cost.SelectionsReused {
		t.Errorf("second run: %d validations, %d implied, cost %+v; first %d, %d, %+v",
			again.Validations, again.Implied, again.Cost, first.Validations, first.Implied, first.Cost)
	}
	ref, err := NewEngineOn(db, db).Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Mappings) == 0 || len(first.Mappings) != len(ref.Mappings) {
		t.Fatalf("%d mappings with the memo, %d on the reference engine", len(first.Mappings), len(ref.Mappings))
	}
	for i := range ref.Mappings {
		if first.Mappings[i].SQL != ref.Mappings[i].SQL {
			t.Errorf("mapping %d with the memo:\n%s\nreference engine:\n%s", i, first.Mappings[i].SQL, ref.Mappings[i].SQL)
		}
	}
	if ref.Cost.SelectionsReused != 0 {
		t.Errorf("the reference engine reports %d selections reused", ref.Cost.SelectionsReused)
	}
}
