package prism

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/colexec"
	"prism/internal/exec"
)

// collectKinds drains a stream and indexes events by kind, preserving the
// overall arrival order.
func collectEvents(t *testing.T, ch <-chan StreamEvent) []StreamEvent {
	t.Helper()
	var events []StreamEvent
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatal("stream did not close within 30s")
		}
	}
}

func TestDiscoverStreamYieldsMappingsBeforeDone(t *testing.T) {
	eng := mondialEngine(t)
	spec := paperSpec(t)
	events := collectEvents(t, eng.DiscoverStream(context.Background(), spec, Options{}))
	if len(events) == 0 {
		t.Fatal("empty stream")
	}

	last := events[len(events)-1]
	if last.Kind != EventDone {
		t.Fatalf("stream must end with done, got %s", last.Kind)
	}
	if last.Err != nil {
		t.Fatalf("round failed: %v", last.Err)
	}
	if last.Report == nil || len(last.Report.Mappings) == 0 {
		t.Fatal("done event should carry a report with mappings")
	}

	var mappingIdx, doneIdx, firstProgress = -1, -1, -1
	streamed := map[string]bool{}
	for i, ev := range events {
		switch ev.Kind {
		case EventMapping:
			if mappingIdx < 0 {
				mappingIdx = i
			}
			if ev.Mapping == nil || ev.Mapping.SQL == "" {
				t.Fatal("mapping event without a mapping")
			}
			streamed[ev.Mapping.SQL] = true
		case EventDone:
			doneIdx = i
		case EventProgress:
			if firstProgress < 0 {
				firstProgress = i
			}
			if ev.Progress.Validations == 0 && ev.Progress.Implied == 0 {
				t.Error("progress event with no progress")
			}
		}
	}
	if mappingIdx < 0 {
		t.Fatal("no mapping events streamed")
	}
	if mappingIdx >= doneIdx {
		t.Error("mappings must arrive before the round completes")
	}
	if firstProgress < 0 {
		t.Error("no progress events streamed")
	}
	// The streamed mappings are exactly the report's (order aside).
	if len(streamed) != len(last.Report.Mappings) {
		t.Errorf("streamed %d distinct mappings, report has %d", len(streamed), len(last.Report.Mappings))
	}
	for _, m := range last.Report.Mappings {
		if !streamed[m.SQL] {
			t.Errorf("report mapping never streamed: %s", m.SQL)
		}
	}
	// Phase events arrive in pipeline order.
	order := map[EventKind]int{}
	for i, ev := range events {
		if _, seen := order[ev.Kind]; !seen {
			order[ev.Kind] = i
		}
	}
	if !(order[EventRelated] < order[EventCandidates] && order[EventCandidates] < order[EventFilters] && order[EventFilters] < doneIdx) {
		t.Errorf("phase events out of order: %v", order)
	}
	// Every event measures against the round's start and the round's one
	// deadline: Elapsed never runs backwards and TimeRemaining never grows,
	// the done event included.
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1].Progress, events[i].Progress
		if cur.Elapsed < prev.Elapsed || cur.TimeRemaining > prev.TimeRemaining || cur.TimeRemaining <= 0 {
			t.Errorf("%s then %s: elapsed %s -> %s, remaining %s -> %s", events[i-1].Kind, events[i].Kind,
				prev.Elapsed, cur.Elapsed, prev.TimeRemaining, cur.TimeRemaining)
		}
	}
}

// stableGoroutines polls until the goroutine count settles back to at most
// base (allowing the runtime a moment to reap finished goroutines).
func stableGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", n, base)
}

// probeHook is an executor with a hook on its k-th probe.
type probeHook struct {
	exec.Executor
	probes atomic.Int64
	at     int64
	hook   func()
}

func (p *probeHook) Exists(plan exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	if p.probes.Add(1) == p.at {
		p.hook()
	}
	return p.Executor.Exists(plan, opts)
}

func TestDiscoverCancelledMidValidationReturnsPartialReport(t *testing.T) {
	db := mondialEngine(t).Database()
	spec := paperSpec(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every validation is one probe of the backend; cancelling from inside
	// the fourth guarantees the round dies mid-validation-phase regardless
	// of machine speed.
	var cancelled time.Time
	inner, err := colexec.New(db)
	if err != nil {
		t.Fatal(err)
	}
	eng := engineOn(db, &probeHook{Executor: inner, at: 4, hook: func() {
		cancelled = time.Now()
		cancel()
	}})
	report, err := eng.Discover(ctx, spec, Options{})
	returned := time.Now()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if report == nil {
		t.Fatal("cancelled rounds must still return the partial report")
	}
	if !report.Cancelled {
		t.Error("report should be marked cancelled")
	}
	if report.Failure() == "" {
		t.Error("cancelled rounds report a failure")
	}
	if report.CandidatesEnumerated == 0 || report.FiltersGenerated == 0 {
		t.Errorf("partial report should cover the completed phases: %s", report.Summary())
	}
	if cancelled.IsZero() {
		t.Fatal("the round finished before the probe hook fired")
	}
	if d := returned.Sub(cancelled); d > time.Second {
		t.Errorf("cancellation took %s to take effect (want < 1s)", d)
	}
	stableGoroutines(t, baseline)
}

func TestDiscoverPreCancelledContext(t *testing.T) {
	eng := mondialEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := eng.Discover(ctx, paperSpec(t), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if report == nil || !report.Cancelled {
		t.Error("pre-cancelled rounds still return a (marked) report")
	}
}

func TestDiscoverStreamCancelledNoGoroutineLeak(t *testing.T) {
	eng := mondialEngine(t)
	spec := paperSpec(t)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := eng.DiscoverStream(ctx, spec, Options{})
		// Cancel at varying depths into the stream, including immediately.
		for j := 0; j < i; j++ {
			if _, ok := <-ch; !ok {
				break
			}
		}
		cancel()
		for range ch { // drain to close
		}
	}
	stableGoroutines(t, baseline)
}

func TestOpenUnifiedConstructor(t *testing.T) {
	for _, name := range DatasetNames() {
		if name == "mondial" {
			continue // covered below at reduced scale
		}
		// Bundled names resolve case-insensitively with surrounding space.
		if _, err := Open("  " + name + " "); err != nil {
			t.Errorf("Open(%q): %v", name, err)
		}
	}
	eng, err := Open("MONDIAL", WithMondialConfig(MondialConfig{
		Seed: 2, Countries: 2, ProvincesPerCountry: 1, CitiesPerProvince: 1,
		Lakes: 6, Rivers: 3, Mountains: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Database().NumRows("Lake") != 6 {
		t.Errorf("sized config ignored: %d lakes", eng.Database().NumRows("Lake"))
	}
	if _, err := Open("nope"); err == nil {
		t.Error("unknown name should fail")
	}
	if _, err := Open("imdb", WithMondialConfig(MondialConfig{Lakes: 6})); err == nil {
		t.Error("a sizing option for a different data set should fail, not be ignored")
	}
	// WithDatabase bypasses the bundled sets entirely.
	custom := mondialEngine(t).Database()
	eng2, err := Open("anything", WithDatabase(custom))
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Database() != custom {
		t.Error("WithDatabase should wrap the given database")
	}
}

func TestRegistryLazySharedEngines(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) != len(DatasetNames()) {
		t.Fatalf("bundled sets should be pre-registered: %v", names)
	}
	if _, err := r.Get("never-registered"); err == nil {
		t.Error("unknown name should fail")
	}

	// Override a bundled name with a reduced instance; builds exactly once
	// even under concurrent first access, and every caller shares it.
	builds := 0
	r.RegisterOpener("mondial", func() (*Engine, error) {
		builds++
		return Open("mondial", WithMondialConfig(MondialConfig{
			Seed: 4, Countries: 2, ProvincesPerCountry: 1, CitiesPerProvince: 1,
			Lakes: 5, Rivers: 3, Mountains: 2,
		}))
	})
	var wg sync.WaitGroup
	engines := make([]*Engine, 8)
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := r.Get("Mondial")
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = eng
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("engine built %d times, want 1", builds)
	}
	for _, eng := range engines[1:] {
		if eng != engines[0] {
			t.Fatal("concurrent Gets should share one engine")
		}
	}

	// Registered engines serve concurrent discovery rounds.
	spec := paperSpec(t)
	var rounds sync.WaitGroup
	for i := 0; i < 4; i++ {
		rounds.Add(1)
		go func() {
			defer rounds.Done()
			report, err := engines[0].Discover(context.Background(), spec, Options{})
			if err != nil || len(report.Mappings) == 0 {
				t.Errorf("concurrent round failed: %v", err)
			}
		}()
	}
	rounds.Wait()

	// Failed builds are cached per entry.
	r.RegisterOpener("broken", func() (*Engine, error) { return nil, fmt.Errorf("boom") })
	if _, err := r.Get("broken"); err == nil || err.Error() != "boom" {
		t.Errorf("want boom, got %v", err)
	}
	if _, err := r.Get("broken"); err == nil {
		t.Error("failed build should stay failed")
	}

	// RegisterDatabase installs a custom database lazily.
	r.RegisterDatabase("custom", mondialEngine(t).Database())
	if eng, err := r.Get("CUSTOM"); err != nil || eng == nil {
		t.Errorf("custom database lookup: %v", err)
	}
}

func TestOpenWithSizedMondial(t *testing.T) {
	eng, err := Open("mondial", WithMondialConfig(MondialConfig{
		Seed: 4, Countries: 2, ProvincesPerCountry: 1, CitiesPerProvince: 1,
		Lakes: 6, Rivers: 3, Mountains: 2,
	}))
	if err != nil || eng.Database().NumRows("Lake") != 6 {
		t.Errorf("Open with sized Mondial: %v", err)
	}
	if _, err := Open("nba"); err != nil {
		t.Errorf("Open(nba): %v", err)
	}
}
