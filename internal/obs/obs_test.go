package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("prism_test_total", "a test counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters are monotonic; negative deltas are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("prism_test_gauge", "a test gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
}

func TestRegistrationIsMemoized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("prism_memo_total", "memoized")
	b := r.Counter("prism_memo_total", "memoized")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	t1 := r.Counter("prism_memo_total", "memoized", Label{Key: "tenant", Value: "a"})
	t2 := r.Counter("prism_memo_total", "memoized", Label{Key: "tenant", Value: "b"})
	if t1 == t2 || t1 == a {
		t.Fatal("distinct label sets must be distinct series")
	}
	// Label order must not mint a new series.
	x := r.Gauge("prism_memo_gauge", "", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	y := r.Gauge("prism_memo_gauge", "", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if x != y {
		t.Fatal("label order minted a new series")
	}
}

// TestLabelKeyInjective pins that the series-key encoding cannot merge
// distinct label sets: delimiter characters inside a key or value (the
// '=' and ',' the encoding itself uses) must not collide with the
// boundaries between labels.
func TestLabelKeyInjective(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("prism_inj_total", "", Label{Key: "a", Value: "b,c=d"})
	b := r.Counter("prism_inj_total", "", Label{Key: "a", Value: "b"}, Label{Key: "c", Value: "d"})
	if a == b {
		t.Fatal("distinct label sets collided on one series key")
	}
	x := r.Counter("prism_inj_total", "", Label{Key: `a"`, Value: "b"})
	y := r.Counter("prism_inj_total", "", Label{Key: "a", Value: `"b`})
	if x == y {
		t.Fatal("quote characters inside labels collided on one series key")
	}
}

// TestGatherConcurrentRegister pins the scrape/register race: a scrape
// must not read family keys or series maps concurrently with a
// registration (per-tenant series are minted at request time, so a
// /api/v1/metrics scrape can coincide with the first round of a new
// tenant). Several goroutines scrape in a loop while the main goroutine
// registers a stream of new series; before Gather snapshotted families
// under the lock this was a -race report and, on the series map, a
// fatal concurrent map read/write.
func TestGatherConcurrentRegister(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Gather()
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		tenant := Label{Key: "tenant", Value: "t" + trimFloat(float64(i))}
		r.Counter("prism_race_total", "", tenant).Inc()
		r.Gauge("prism_race_gauge", "", tenant).Set(int64(i))
		if i%100 == 0 {
			r.Histogram("prism_race_ms", "", 8, tenant).Observe(float64(i))
		}
	}
	close(stop)
	wg.Wait()
}

// TestHotPathAllocs is the instrumentation cost guard: counter and
// gauge updates allocate nothing, and the nil instruments (untraced spans, unregistered
// counters) are equally free. This is what keeps the warm Exists probe
// at 0 allocs/op with observability threaded through the stack.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("prism_alloc_total", "")
	g := r.Gauge("prism_alloc_gauge", "")
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	check("counter", func() { c.Add(1) })
	check("gauge", func() { g.SetMax(5) })
	var nilC *Counter
	var nilG *Gauge
	var nilS *Span
	check("nil counter", func() { nilC.Add(1) })
	check("nil gauge", func() { nilG.Set(1) })
	check("nil span", func() {
		sp := nilS.Child("x")
		sp.SetAttr("k", 1)
		sp.End()
	})
	check("span from bare context", func() {
		_ = SpanFromContext(context.Background())
	})
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("prism_hist_ms", "", 100)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should report NaN")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	// The window slides: after 100 more observations of 1000 the window
	// holds only large values, but the lifetime count keeps growing.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.5); got != 1000 {
		t.Fatalf("post-slide p50 = %v, want 1000", got)
	}
	if got := h.Count(); got != 200 {
		t.Fatalf("lifetime count = %d, want 200", got)
	}
	// And it forgets entirely: 100 small values push every 1000 out.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 after the second roll = %v, want 1", got)
	}

	// Nearest rank rounds up: the p99 of two samples is the larger one.
	// Quantile 0 and 1 are the window's minimum and maximum.
	two := r.Histogram("prism_two_ms", "", 16)
	two.Observe(20)
	two.Observe(10)
	if p50, p99 := two.Quantile(0.5), two.Quantile(0.99); p50 != 10 || p99 != 20 {
		t.Fatalf("two samples: p50 = %v, p99 = %v, want 10 and 20", p50, p99)
	}
	if lo, hi := two.Quantile(0), two.Quantile(1); lo != 10 || hi != 20 {
		t.Fatalf("two samples: q0 = %v, q1 = %v, want 10 and 20", lo, hi)
	}
}

// TestHistogramConcurrentObserve has eight goroutines observe into one
// small window while quantiles are read: no observation is lost (and,
// under -race, no access is unsynchronised).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("prism_concurrent_ms", "", 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
				if i%100 == 0 {
					h.Quantile(0.99)
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_rounds_total", "Discovery rounds completed.").Add(3)
	r.Gauge("prism_queue_depth", "Queued requests.", Label{Key: "class", Value: "batch"}).Set(2)
	h := r.Histogram("prism_round_duration_ms", "Round wall time.", 16)
	h.Observe(10)
	h.Observe(20)
	r.RegisterCollector(func() []Sample {
		return []Sample{
			{
				Name: "prism_admission_in_flight", Help: "In-flight rounds.", Type: TypeGauge,
				Labels: []Label{{Key: "tenant", Value: `we"ird\`}}, Value: 1,
			},
			// A collector-produced summary with a _count child, the shape
			// the serve latency collector emits.
			{
				Name: "prism_collected_ms", Help: "Collected latency.", Type: TypeSummary,
				Labels: []Label{{Key: "quantile", Value: "0.5"}}, Value: 4,
			},
			{Name: "prism_collected_ms_count", Type: TypeSummary, Value: 9},
		}
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE prism_rounds_total counter",
		"prism_rounds_total 3",
		"# TYPE prism_queue_depth gauge",
		`prism_queue_depth{class="batch"} 2`,
		"# TYPE prism_round_duration_ms summary",
		`prism_round_duration_ms{quantile="0.5"} 10`,
		`prism_round_duration_ms{quantile="0.99"} 20`,
		"prism_round_duration_ms_sum 30",
		"prism_round_duration_ms_count 2",
		`prism_admission_in_flight{tenant="we\"ird\\"} 1`,
		`prism_collected_ms{quantile="0.5"} 4`,
		"prism_collected_ms_count 9",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// _sum/_count are children of their summary family, never families of
	// their own: a # TYPE line for them is invalid summary metadata that
	// promtool lint rejects.
	for _, banned := range []string{
		"# TYPE prism_round_duration_ms_sum",
		"# TYPE prism_round_duration_ms_count",
		"# TYPE prism_collected_ms_count",
	} {
		if strings.Contains(text, banned) {
			t.Errorf("exposition declares a child series as its own family: %q in:\n%s", banned, text)
		}
	}
	if err := checkPrometheusText(text); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
}

// checkPrometheusText is a minimal exposition-format validator: every
// non-comment line must be `name{labels} value` with a parsable value,
// and every sample must be preceded by a TYPE line for its family.
func checkPrometheusText(text string) error {
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return errLine(line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_sum", "_count"} {
			if t := strings.TrimSuffix(name, suf); t != name && typed[t] == TypeSummary {
				base = t
			}
		}
		if _, ok := typed[base]; !ok {
			return errLine("untyped sample: " + line)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if val != "NaN" && val != "+Inf" && val != "-Inf" {
			if _, err := jsonNumber(val); err != nil {
				return errLine(line)
			}
		}
	}
	return sc.Err()
}

type errLine string

func (e errLine) Error() string { return "bad exposition line: " + string(e) }

func jsonNumber(s string) (float64, error) {
	var f float64
	err := json.Unmarshal([]byte(s), &f)
	return f, err
}

func TestSpanTreeConcurrent(t *testing.T) {
	root := NewSpan("round")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("validate")
			sp.SetAttr("batch", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if len(root.Children) != 32 {
		t.Fatalf("children = %d, want 32", len(root.Children))
	}
	if root.Duration <= 0 {
		t.Fatal("End did not record a duration")
	}
	d := root.Duration
	root.End()
	if root.Duration != d {
		t.Fatal("End is not idempotent")
	}
}

func TestSpanChildCap(t *testing.T) {
	root := NewSpan("round")
	for i := 0; i < maxSpanChildren+10; i++ {
		root.Child("v").End()
	}
	if len(root.Children) != maxSpanChildren {
		t.Fatalf("children = %d, want cap %d", len(root.Children), maxSpanChildren)
	}
	if root.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", root.Dropped)
	}
}

func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("bare context should carry no span")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("nil span should not wrap the context")
	}
	s := NewSpan("round")
	if got := SpanFromContext(ContextWithSpan(ctx, s)); got != s {
		t.Fatal("span did not round-trip through the context")
	}
}

func TestWriteNDJSON(t *testing.T) {
	root := NewSpan("round")
	enum := root.Child("enumerate")
	enum.SetAttr("candidates", 12)
	enum.End()
	sched := root.Child("schedule")
	sched.Child("validate").End()
	sched.End()
	root.End()

	var buf bytes.Buffer
	if err := root.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	type line struct {
		ID         int            `json:"id"`
		Parent     int            `json:"parent"`
		Name       string         `json:"name"`
		DurationNs int64          `json:"durationNs"`
		Attrs      map[string]any `json:"attrs"`
	}
	var parsed []line
	for _, l := range lines {
		var v line
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		parsed = append(parsed, v)
	}
	if parsed[0].Name != "round" || parsed[0].Parent != 0 || parsed[0].ID != 1 {
		t.Fatalf("bad root line: %+v", parsed[0])
	}
	if parsed[1].Name != "enumerate" || parsed[1].Parent != 1 {
		t.Fatalf("bad enumerate line: %+v", parsed[1])
	}
	if parsed[1].Attrs["candidates"] != float64(12) {
		t.Fatalf("enumerate attrs = %v", parsed[1].Attrs)
	}
	if parsed[3].Name != "validate" || parsed[3].Parent != parsed[2].ID {
		t.Fatalf("bad validate line: %+v", parsed[3])
	}
	// A nil span writes nothing.
	var nilSpan *Span
	var empty bytes.Buffer
	if err := nilSpan.WriteNDJSON(&empty); err != nil || empty.Len() != 0 {
		t.Fatalf("nil span wrote %q (err %v)", empty.String(), err)
	}
}

// TestWriteNDJSONConcurrentSetAttr pins that dumping a trace does not
// race with attribute writes on still-live spans (workers finishing
// validate spans while the CLI writes the -trace file): the dump must
// clone Attrs under the span lock rather than alias the map into the
// encoder.
func TestWriteNDJSONConcurrentSetAttr(t *testing.T) {
	root := NewSpan("round")
	live := root.Child("validate")
	live.SetAttr("batch", 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := root.WriteNDJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50000; i++ {
		live.SetAttr("rows", i)
		live.SetAttr("k"+trimFloat(float64(i%17)), i)
	}
	close(stop)
	wg.Wait()
}

func TestSpanFind(t *testing.T) {
	root := NewSpan("round")
	root.Child("enumerate").End()
	s := root.Child("schedule")
	v := s.Child("validate")
	v.End()
	s.End()
	if got := root.Find("validate"); got != v {
		t.Fatal("Find missed a nested span")
	}
	if got := root.Find("nope"); got != nil {
		t.Fatal("Find invented a span")
	}
}

// TestNoGoroutineLeak pins the registry's shutdown story: the registry
// and encoder own no goroutines, so heavy concurrent use leaves the
// goroutine count where it started.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("prism_leak_total", "")
			h := r.Histogram("prism_leak_ms", "", 32)
			for j := 0; j < 100; j++ {
				c.Inc()
				h.Observe(float64(j))
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}
