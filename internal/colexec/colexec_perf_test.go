package colexec

// Performance-contract tests of the columnar executor: pruning off the key
// dictionary, per-id verdicts, and the zero-allocation warm validation path.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/sched"
	"prism/internal/schema"
	"prism/internal/value"
	"prism/internal/workload"
)

// TestZoneMapPruning checks that a range predicate whose interval cover
// falls outside the range of the column's numeric views resolves to an
// empty result without touching any row, and that pruning never changes the
// result set relative to the reference engine.
func TestZoneMapPruning(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	outOfRange := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:    ref("Lake", "Area"),
		Pred:   func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 1e12 },
		Bounds: &exec.NumericBounds{Lo: 1e12, HasLo: true},
	}}}
	memRes, err := db.ExecuteWith(lakePlan(), outOfRange)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := col.ExecuteWith(lakePlan(), outOfRange)
	if err != nil {
		t.Fatal(err)
	}
	if memRes.NumRows() != 0 || colRes.NumRows() != 0 {
		t.Fatalf("out-of-range predicate matched rows: mem=%d columnar=%d", memRes.NumRows(), colRes.NumRows())
	}
	if colRes.Stats.RowsScanned != 0 || colRes.Stats.ZonesPruned != 1 {
		t.Errorf("the views' range should prove the selection empty: scanned %d rows, %d selections pruned",
			colRes.Stats.RowsScanned, colRes.Stats.ZonesPruned)
	}
	if memRes.Stats.RowsScanned == 0 {
		t.Error("reference engine unexpectedly scanned nothing (fixture broken?)")
	}

	// An in-range cover must not prune: results identical to mem.
	inRange := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:    ref("Lake", "Area"),
		Pred:   func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 100 && f <= 600 },
		Bounds: &exec.NumericBounds{Lo: 100, Hi: 600, HasLo: true, HasHi: true},
	}}}
	want, err := db.ExecuteWith(lakePlan(), inRange)
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.ExecuteWith(lakePlan(), inRange)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() || got.Stats.ZonesPruned != 0 {
		t.Fatalf("in-range rows differ: columnar %d (%d selections pruned), mem %d", got.NumRows(), got.Stats.ZonesPruned, want.NumRows())
	}
	for i := range got.Rows {
		if got.Rows[i].Key() != want.Rows[i].Key() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestAllNullColumnPruning: a keyword or bounded predicate over an all-NULL
// column is provably empty from the key dictionary's NULL rows, without a
// row touched; a predicate that may accept NULL is not pruned. Either way
// the rows are the reference engine's.
func TestAllNullColumnPruning(t *testing.T) {
	db := difftest.Ranges(t)
	db.Analyze()
	col := build(t, db)
	plan := exec.Plan{Tables: []string{"Reading"}, Project: []schema.ColumnRef{ref("Reading", "Num")}}
	void := ref("Reading", "Void") // NULL in every row
	for _, c := range []struct {
		name   string
		cp     exec.ColumnPredicate
		pruned bool
	}{
		{"bounded", exec.ColumnPredicate{Ref: void, Pred: func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 0 },
			Bounds: &exec.NumericBounds{Lo: 0, HasLo: true}}, true},
		{"keyword", exec.ColumnPredicate{Ref: void, Pred: func(v value.Value) bool { return v.MatchesKeyword("3") }, Keywords: []string{"3"}}, true},
		{"accepts NULL", exec.ColumnPredicate{Ref: void, Pred: value.Value.IsNull}, false},
	} {
		opts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{c.cp}}
		want, err := db.ExecuteWith(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.ExecuteWith(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("%s: %d rows, mem %d", c.name, got.NumRows(), want.NumRows())
		}
		if pruned := got.Stats.ZonesPruned == 1 && got.Stats.RowsScanned == 0; pruned != c.pruned {
			t.Errorf("%s: pruned = %v (stats %+v), want %v", c.name, pruned, got.Stats, c.pruned)
		}
	}
}

// TestDictionaryScanMatchesReference runs a predicate with no keyword cover
// behind a first predicate on the same table, whose rows the key dictionary
// selects, and checks that verifying those candidates through a per-id
// verdict table keeps exactly the reference engine's rows: on a column of
// few ids, on one of more than 256, and on one whose variant rows ("ABC"
// beside "abc", "3" beside "3.0") a case- and spelling-sensitive predicate
// tells apart from the value of their id.
func TestDictionaryScanMatchesReference(t *testing.T) {
	quirks := difftest.Quirks(t)
	quirks.Analyze()
	for _, c := range []struct {
		db           *mem.Database
		plan         exec.Plan
		first, check exec.ColumnPredicate
	}{{
		db: mondial(t), plan: lakePlan(),
		first: exec.ColumnPredicate{Ref: ref("geo_lake", "Lake"), Pred: func(v value.Value) bool { return !v.IsNull() }},
		check: exec.ColumnPredicate{Ref: ref("geo_lake", "Province"), Pred: func(v value.Value) bool { return !v.IsNull() && len(v.String()) >= 6 }},
	}, {
		db: wideDB(t, 1000, 600), plan: exec.Plan{Tables: []string{"Wide"}, Project: []schema.ColumnRef{ref("Wide", "Id"), ref("Wide", "Code")}},
		first: exec.ColumnPredicate{Ref: ref("Wide", "Id"), Pred: func(v value.Value) bool { return !v.IsNull() }},
		check: exec.ColumnPredicate{Ref: ref("Wide", "Code"), Pred: func(v value.Value) bool { return !v.IsNull() && v.Int()%7 == 3 }},
	}, {
		db: quirks, plan: exec.Plan{Tables: []string{"Parent"}, Project: []schema.ColumnRef{ref("Parent", "Tag"), ref("Parent", "Id")}},
		first: exec.ColumnPredicate{Ref: ref("Parent", "Id"), Pred: func(v value.Value) bool { return !v.IsNull() }},
		check: exec.ColumnPredicate{Ref: ref("Parent", "Tag"), Pred: func(v value.Value) bool {
			return !v.IsNull() && (strings.HasPrefix(v.Text(), "A") || strings.Contains(v.Text(), "."))
		}},
	}} {
		x, err := c.db.ColumnIndex(c.check.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if candidates := c.db.NumRows(c.check.Ref.Table); len(x.Vals)+1 >= candidates {
			t.Fatalf("%s: %d ids for %d candidates, the verdict table is not used", c.check.Ref, len(x.Vals)+1, candidates)
		}
		opts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{c.first, c.check}}
		want, err := c.db.ExecuteWith(c.plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := build(t, c.db).ExecuteWith(c.plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() || want.NumRows() == 0 {
			t.Fatalf("%s: rows differ: columnar %d, mem %d", c.check.Ref, got.NumRows(), want.NumRows())
		}
		for i := range got.Rows {
			if !got.Rows[i][0].EqualStrict(want.Rows[i][0]) || got.Rows[i].Key() != want.Rows[i].Key() {
				t.Fatalf("%s: row %d differs: %v vs %v", c.check.Ref, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// wideDB is one table, Wide, of n rows: Id is the row number, Code cycles
// through codes distinct values.
func wideDB(t testing.TB, n, codes int) *mem.Database {
	t.Helper()
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("Wide", schema.Column{Name: "Id", Type: value.Int}, schema.Column{Name: "Code", Type: value.Int})); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("wide", sch)
	for i := 0; i < n; i++ {
		if err := db.Insert("Wide", value.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i % codes))}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// shoreDB holds one text column whose values have blanks at their edges,
// which no generated column does.
func shoreDB(t testing.TB) *mem.Database {
	t.Helper()
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("Shore", schema.Column{Name: "Name", Type: value.Text})); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("shore", sch)
	for _, s := range []string{" Lake Tahoe", "Lake Tahoe", "TAHOE\t", " lake tahoe"} {
		if err := db.Insert("Shore", value.Tuple{value.NewText(s)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// TestWarmValidationPathAllocations is the tentpole's executor-level
// guarantee: once the executor and its pooled execution state are warm, an
// existence-style validation probe — the unit of work the scheduler issues
// thousands of times per round — performs zero heap allocations, on the
// keyword paths (text, numeric, dates and text with blanks at its edges) and
// on the range selections the key dictionary answers.
func TestWarmValidationPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops pooled state on purpose; allocation counts are meaningless")
	}
	db := mondial(t)
	col := build(t, db)
	plan := lakePlan()

	// Keyword-equality probe (the dominant validation shape). Keywords are
	// pre-normalised (lower-case) exactly as filter.Validator hands them
	// to the executor.
	kwOpts := exec.ExecOptions{
		ColumnPredicates: []exec.ColumnPredicate{{
			Ref:      ref("Lake", "Name"),
			Pred:     func(v value.Value) bool { return v.MatchesKeyword("lake tahoe") },
			Keywords: []string{"lake tahoe"},
		}},
		TuplePredicate: func(value.Tuple) bool { return true },
	}
	// The same probe with a numeric keyword, which reads the sorted views.
	areas, err := db.ColumnValues(ref("Lake", "Area"))
	if err != nil {
		t.Fatal(err)
	}
	area := areas[0].String()
	numOpts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:      ref("Lake", "Area"),
		Pred:     func(v value.Value) bool { return v.MatchesKeyword(area) },
		Keywords: []string{area},
	}}}
	// Range probe with a numeric cover (evaluated per value id), and the
	// same range as a pure numeric one.
	rangeOpts := exec.ExecOptions{
		ColumnPredicates: []exec.ColumnPredicate{{
			Ref:    ref("Lake", "Area"),
			Pred:   func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 100 && f <= 600 },
			Bounds: &exec.NumericBounds{Lo: 100, Hi: 600, HasLo: true, HasHi: true},
		}},
	}
	exactOpts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{exactRange(ref("Lake", "Area"), 100, 600, 0)}}
	// A three-table chain, and (on the corner-case database) a plan whose
	// third edge closes a cycle: the level cursors and the residual list
	// come from the pooled state too. The residual edge compares integers;
	// value.Compare lower-cases text operands, which allocates outside the
	// executor.
	edge := build(t, edgeDB(t))
	_, cyclic := edgePlans()
	// Keyword probes that read the dictionary's respelled list: a date (its
	// rendering is not its key) and text with blanks at its edges. Their
	// predicates compare without rendering, as the residual edge does.
	ranges := difftest.Ranges(t)
	ranges.Analyze()
	day := value.NewDateYMD(2019, time.January, 1)
	dayOpts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:      ref("Reading", "Day"),
		Pred:     func(v value.Value) bool { return v.EqualStrict(day) },
		Keywords: []string{day.String()},
	}}}
	shore := build(t, shoreDB(t))
	blankOpts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:      ref("Shore", "Name"),
		Pred:     func(v value.Value) bool { return !v.IsNull() && v.Text() == " Lake Tahoe" },
		Keywords: []string{"lake tahoe"},
	}}}
	single := func(table string, col schema.ColumnRef) exec.Plan {
		return exec.Plan{Tables: []string{table}, Project: []schema.ColumnRef{col}}
	}
	probe := func(ex exec.Executor, plan exec.Plan, opts exec.ExecOptions) func() {
		return func() {
			if ok, _, err := ex.Exists(plan, opts); err != nil || !ok {
				t.Fatalf("Exists = %v, %v", ok, err)
			}
		}
	}
	always := func(value.Tuple) bool { return true }
	for name, fn := range map[string]func(){
		"keyword-probe":       probe(col, plan, kwOpts),
		"numeric-kw-probe":    probe(col, plan, numOpts),
		"range-probe":         probe(col, plan, rangeOpts),
		"exact-range-probe":   probe(col, plan, exactOpts),
		"three-table-probe":   probe(col, threeWayPlan(), exec.ExecOptions{TuplePredicate: always}),
		"residual-edge-probe": probe(edge, cyclic, exec.ExecOptions{TuplePredicate: always}),
		"date-kw-probe":       probe(build(t, ranges), single("Reading", ref("Reading", "Day")), dayOpts),
		"edge-blank-kw-probe": probe(shore, single("Shore", ref("Shore", "Name")), blankOpts),
	} {
		fn() // warm the pools
		fn()
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("warm %s allocates %.2f times per run, want 0", name, allocs)
		}
	}
}

// TestScratchBytesDependsOnTheExecutionOnly pins ExecStats.ScratchBytes as
// a function of the execution: the same probe reports the same bytes on a
// fresh execution state and on one whose arenas a far larger plan has
// already grown.
func TestScratchBytesDependsOnTheExecutionOnly(t *testing.T) {
	db := mondial(t)
	col := buildColumnar(t, db)
	probe := func(st *execState) int {
		t.Helper()
		found := false
		_, err := col.run(st, lakePlan(), exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
			Ref:      ref("Lake", "Name"),
			Pred:     func(v value.Value) bool { return v.MatchesKeyword("lake tahoe") },
			Keywords: []string{"lake tahoe"},
		}}}, func(value.Tuple) bool { found = true; return false })
		if err != nil || !found {
			t.Fatalf("probe: found=%v err=%v", found, err)
		}
		n := st.scratchFootprint()
		st.reset()
		return n
	}
	fresh := probe(&execState{})
	if fresh == 0 {
		t.Fatal("a probe that selects rows reports no scratch")
	}

	warm := &execState{}
	scanAll := func(table, column string) exec.ColumnPredicate {
		return exec.ColumnPredicate{Ref: ref(table, column), Pred: func(value.Value) bool { return true }}
	}
	wide := threeWayPlan()
	wide.Project = append(wide.Project, ref("Province", "Name"), ref("City", "Province"))
	if _, err := col.run(warm, wide, exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{
		scanAll("Country", "Name"), scanAll("Province", "Name"), scanAll("City", "Name"),
	}}, func(value.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	big := warm.scratchFootprint()
	warm.reset()
	if big <= fresh {
		t.Fatalf("the warming plan drew %d bytes, the probe %d — it does not outgrow the probe", big, fresh)
	}
	if got := probe(warm); got != fresh {
		t.Fatalf("ScratchBytes = %d on a warmed state, %d on a fresh one", got, fresh)
	}
}

// TestPreviewAllocations pins what a warm result preview allocates: the
// rows it keeps, not the rows it walks past. Two Distinct Limit 10
// executions keep 10 rows each; one meets them in its first 10 rows, the
// other drops 99 duplicates on the way. With and without a tuple
// predicate (the two places the walk drops a duplicate), both allocate
// alike.
func TestPreviewAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops pooled state on purpose; allocation counts are meaningless")
	}
	sch := schema.New()
	for _, name := range []string{"Fresh", "Repeats"} {
		if err := sch.AddTable(schema.MustTable(name, schema.Column{Name: "V", Type: value.Int}, schema.Column{Name: "W", Type: value.Text})); err != nil {
			t.Fatal(err)
		}
	}
	db := mem.NewDatabase("previews", sch)
	for i := 0; i < 200; i++ {
		for table, v := range map[string]int{"Fresh": i, "Repeats": i / 12} {
			if err := db.Insert(table, value.Tuple{value.NewInt(int64(v)), value.NewText(fmt.Sprintf("w%d", v%3))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Analyze()
	col := build(t, db)
	visited := 0
	counting := func(value.Tuple) bool { visited++; return true }
	for _, pred := range []func(value.Tuple) bool{nil, counting} {
		allocs := map[string]float64{}
		for _, table := range []string{"Fresh", "Repeats"} {
			plan := exec.Plan{Tables: []string{table}, Project: []schema.ColumnRef{ref(table, "V"), ref(table, "W")}, Distinct: true}
			opts := exec.ExecOptions{Limit: 10, TuplePredicate: pred}
			preview := func() {
				res, err := col.ExecuteWith(plan, opts)
				if err != nil || len(res.Rows) != 10 {
					t.Fatalf("%s preview: %v, %v", table, res, err)
				}
			}
			preview() // warm the pool
			visited = 0
			preview()
			if want := map[string]int{"Fresh": 10, "Repeats": 109}[table]; pred != nil && visited != want {
				t.Fatalf("%s preview visits %d rows, want %d", table, visited, want)
			}
			allocs[table] = testing.AllocsPerRun(100, preview)
		}
		if allocs["Fresh"] != allocs["Repeats"] {
			t.Errorf("predicate=%v: a preview that keeps every row it visits allocates %.1f times, one that drops 99 duplicates %.1f",
				pred != nil, allocs["Fresh"], allocs["Repeats"])
		}
	}
}

// BenchmarkPreview runs the result previews of a demo-Mondial round: the
// paper's walkthrough, scheduled as a round schedules it, then every
// confirmed candidate's plan as a Distinct execution of at most 10 rows,
// the preview the demo server attaches to each mapping.
func BenchmarkPreview(b *testing.B) {
	db, err := dataset.ByName("mondial")
	if err != nil {
		b.Fatal(err)
	}
	db.Analyze()
	col := build(b, db)
	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		b.Fatal(err)
	}
	related, ok := difftest.Related(db, spec)
	if !ok {
		b.Fatal("a target column has no related source column")
	}
	cands, err := graphx.Enumerate(graphx.New(db.Schema()), related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
	if err != nil {
		b.Fatal(err)
	}
	set, err := filter.DecomposeFor(context.Background(), spec, cands)
	if err != nil {
		b.Fatal(err)
	}
	runner := &sched.Runner{DB: col, Spec: spec, Set: set, Estimator: &sched.BayesEstimator{Model: bayes.Train(db), Spec: spec}}
	res, err := runner.RunContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var plans []exec.Plan
	for _, ci := range res.Confirmed {
		p := set.Candidates[ci].Plan()
		p.Distinct = true
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		b.Fatal("the walkthrough confirms no mapping")
	}
	opts := exec.ExecOptions{Limit: 10}
	b.ReportAllocs()
	rows := 0
	for b.Loop() {
		rows = 0
		for _, p := range plans {
			res, err := col.ExecuteWith(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(res.Rows)
		}
	}
	b.ReportMetric(float64(len(plans)), "previews/op")
	b.ReportMetric(float64(rows), "rows/op")
}

// TestFirstTupleCost pins what an existence probe pays: on a join where
// every partial tuple extends, the walk forms at most one partial tuple per
// level for the tuple it returns and for each one the tuple predicate
// turned down before it.
func TestFirstTupleCost(t *testing.T) {
	db, plan := fanDB(t, 50, 4)
	col := buildColumnar(t, db)
	depth := len(plan.Tables) - 1
	for _, reject := range []int{0, 1, 7, 60} {
		rejected := 0
		ok, stats, err := col.Exists(plan, exec.ExecOptions{TuplePredicate: func(value.Tuple) bool {
			if rejected < reject {
				rejected++
				return false
			}
			return true
		}})
		if err != nil || !ok {
			t.Fatalf("reject %d: ok=%v err=%v", reject, ok, err)
		}
		if stats.IntermediateRows > depth*(rejected+1) {
			t.Errorf("reject %d: %d partial tuples formed, want <= %d × %d", reject, stats.IntermediateRows, depth, rejected+1)
		}
		if stats.JoinsExecuted != depth || stats.PeakIntermediateBytes != 0 {
			t.Errorf("reject %d: stats %+v", reject, stats)
		}
	}
}

// BenchmarkExistsFirstTuple is the probe a low-resolution round is made
// of: a four-table plan over the 10.7k-row Mondial of the benchmark's
// oneshot_lowres workload with no pushed-down predicate at all (a
// metadata-only specification constrains no cell). first-tuple is answered
// by the first row that joins through; empty-answer, whose tuple predicate
// turns every tuple down, walks the whole join.
func BenchmarkExistsFirstTuple(b *testing.B) {
	db, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		b.Fatal(err)
	}
	db.Analyze()
	col := build(b, db)
	plan := exec.Plan{
		Tables: []string{"Country", "Province", "geo_lake", "geo_river"},
		Joins: []exec.JoinEdge{
			{Left: ref("Province", "Country"), Right: ref("Country", "Name")},
			{Left: ref("geo_lake", "Province"), Right: ref("Province", "Name")},
			{Left: ref("geo_river", "Province"), Right: ref("Province", "Name")},
		},
		Project: []schema.ColumnRef{ref("Country", "Name"), ref("Province", "Name"), ref("geo_lake", "Lake"), ref("geo_river", "River")},
	}
	for _, bc := range []struct {
		name   string
		accept bool
	}{{"first-tuple", true}, {"empty-answer", false}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			opts := exec.ExecOptions{TuplePredicate: func(value.Tuple) bool { return bc.accept }}
			b.ReportAllocs()
			formed := 0
			for i := 0; i < b.N; i++ {
				ok, stats, err := col.Exists(plan, opts)
				if err != nil || ok != bc.accept {
					b.Fatalf("Exists = %v, %v", ok, err)
				}
				formed = stats.IntermediateRows
			}
			b.ReportMetric(float64(formed), "intermediate-rows/op")
		})
	}
}

// setUp is one run of the set-up pipeline on a fresh copy of src's rows:
// mem.Analyze, bayes.Train and this package's New, in the order an engine
// runs them, each timed and its mallocs counted. retained is what the heap
// holds afterwards beyond what it held before the copy existed — the row
// store and everything the three builders keep — measured after two
// collections on either side with database, model and executor still
// referenced.
type setUp struct {
	stage    [3]time.Duration // Analyze, Train, New
	mallocs  [3]uint64
	rows     int
	retained uint64
}

func runSetUp(tb testing.TB, src *mem.Database) setUp {
	var out setUp
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	fresh := mem.NewDatabase(src.Name, src.Schema())
	for _, t := range src.Schema().Tables() {
		rows, _ := src.SampleRows(t.Name, 0)
		if err := fresh.BulkInsert(t.Name, rows); err != nil {
			tb.Fatal(err)
		}
		out.rows += fresh.NumRows(t.Name)
	}
	var model *bayes.Model
	var ex exec.Executor
	b, timed := tb.(*testing.B) // a benchmark's ns/op and allocs/op are the stages, and nothing else
	if timed {
		b.StartTimer()
	}
	for i, stage := range []func(){
		fresh.Analyze,
		func() { model = bayes.Train(fresh) },
		func() { ex = build(tb, fresh) },
	} {
		runtime.ReadMemStats(&ms)
		mallocs, start := ms.Mallocs, time.Now()
		stage()
		out.stage[i] = time.Since(start)
		runtime.ReadMemStats(&ms)
		out.mallocs[i] = ms.Mallocs - mallocs
	}
	if timed {
		b.StopTimer()
	}
	out.retained = heap() - before
	runtime.KeepAlive(src) // counted before, so it must be counted after
	setUpSink = []any{fresh, model, ex}
	return out
}

// setUpSink keeps the last set-up of BenchmarkSetup reachable until the test
// binary exits, so that a -memprofile of it (written at exit) shows who
// holds what: docs/performance.md "Set-up" has the recipe.
var setUpSink []any

// BenchmarkSetup is what an engine pays before its first round, on the
// 10.7k-row Mondial of the benchmark's oneshot_lowres workload and on the
// 230k-row one of oneshot_scale: every iteration copies the rows into a
// fresh database and runs mem.Analyze, bayes.Train and this package's New on
// it — on a database that is already indexed the later two would not be
// measuring set-up. ns/op, B/op and allocs/op are the three stages together
// (the copy is outside the timer); the per-stage metrics say where they
// went. Each builder runs its columns over GOMAXPROCS workers; -cpu 1 is
// the direct loop.
func BenchmarkSetup(b *testing.B) {
	for _, size := range []struct {
		name string
		cfg  dataset.MondialConfig
	}{
		{"rows=10k", difftest.LowresMondialConfig()},
		{"rows=230k", difftest.ScaleMondialConfig()},
	} {
		b.Run(size.name, func(b *testing.B) {
			if testing.Short() && size.cfg == difftest.ScaleMondialConfig() {
				b.Skip("builds the 230k-row database")
			}
			src, err := dataset.Mondial(size.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var sum setUp
			b.StopTimer() // runSetUp starts it around the three stages
			for i := 0; i < b.N; i++ {
				one := runSetUp(b, src)
				for s := range one.stage {
					sum.stage[s] += one.stage[s]
					sum.mallocs[s] += one.mallocs[s]
				}
				sum.rows, sum.retained = one.rows, sum.retained+one.retained
			}
			n := float64(b.N)
			for s, name := range []string{"analyze", "train", "colexec-new"} {
				b.ReportMetric(float64(sum.stage[s].Microseconds())/1e3/n, name+"-ms/op")
				b.ReportMetric(float64(sum.mallocs[s])/n, name+"-allocs/op")
			}
			b.ReportMetric(float64(sum.retained)/n/float64(sum.rows), "retained-B/row")
		})
	}
}

// TestSetupRetainedBytes puts a ceiling on what set-up leaves on the heap
// per row of the 10.7k-row Mondial: key dictionaries, statistics, model
// and executor together. Bytes do not depend on the machine's speed or core
// count. Before the three builders shared one key dictionary per column
// this measurement read 942 B/row, and 726 after; the executor's own value
// copy, text postings and dictionaries and the catalogue's keyword sets
// held 720 − 460 B/row more until the dictionary became the only
// per-column structure, and a key string per value id, a string-keyed
// dictionary and a keyword per number 460 − 406 more until the dictionary
// keyed values by class and bits; the row store held 407 − 280 B/row more
// until the analysis dropped it, leaving the dictionaries the only copy of
// a cell; a keyword table per column and the key list's spare capacity
// 280 − 233 more until the dictionary's text map answered keywords and the
// list was cut to its length; and a map per number class and a string per
// text id 233 − 200 more until numbers were found by binary search over
// the ids sorted by key and text ids pointed into one folded string. The
// ceiling is 200 B/row plus 10 %, so keeping the rows, giving a builder
// back a private copy of a column, or keeping the number maps after the
// build, fails here.
func TestSetupRetainedBytes(t *testing.T) {
	src, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 220 // B/row
	one := runSetUp(t, src)
	perRow := float64(one.retained) / float64(one.rows)
	t.Logf("set-up retains %.0f B/row over %d rows", perRow, one.rows)
	if perRow > ceiling {
		t.Errorf("set-up retains %.0f B/row, ceiling %d", perRow, ceiling)
	}
}

// withoutMemo hands every single execution to the executor with the
// round's selection memo taken out of the options: the executor as it runs
// for a caller that has none.
type withoutMemo struct{ exec.Executor }

func (w withoutMemo) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	opts.Selections = nil
	return w.Executor.Exists(p, opts)
}

func (w withoutMemo) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	opts.Selections = nil
	return w.Executor.ExecuteWith(p, opts)
}

// BenchmarkRangeRound is the validation phase of the rounds that are
// round_p90_ms on the benchmark's oneshot_scale workload: the 230k-row
// Mondial and the pool's value-range specifications (generated the way
// benchmark/workloads.go generates them, after the exact and disjunction
// recipes on the same generator), of which it keeps the heavy ones — those
// with a pure numeric range cell that one of its related source columns
// puts on a table of 10k rows or more. A round is sched.Runner.RunContext
// with a fresh Bayes estimator over the round's filter set, so the
// executor's selections and the estimator's match sets are both in it. memo
// is the round as the library runs it; no-memo takes the round's selection
// memo away, so that every probe selects its rows from the key dictionary
// for itself.
func BenchmarkRangeRound(b *testing.B) {
	if testing.Short() {
		b.Skip("builds the 230k-row database")
	}
	db, err := dataset.Mondial(difftest.ScaleMondialConfig())
	if err != nil {
		b.Fatal(err)
	}
	db.Analyze()
	col := build(b, db)
	model := bayes.Train(db)
	gen, err := workload.NewGenerator(db, 1, workload.MondialGroundTruths())
	if err != nil {
		b.Fatal(err)
	}
	heavyRange := func(spec *constraint.Spec, related [][]schema.ColumnRef) bool {
		for _, sample := range spec.Samples {
			for ti, cell := range sample.Cells {
				if _, exact := lang.ExactRangeBounds(cell); !exact {
					continue
				}
				for _, ref := range related[ti] {
					if db.NumRows(ref.Table) >= 10_000 {
						return true
					}
				}
			}
		}
		return false
	}
	type round struct {
		spec *constraint.Spec
		set  *filter.Set
	}
	runRound := func(ex exec.Executor, r round) sched.Result {
		runner := &sched.Runner{DB: ex, Spec: r.spec, Set: r.set,
			Estimator: &sched.BayesEstimator{Model: model, Spec: r.spec}}
		res, err := runner.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var heavy []round
	g := graphx.New(db.Schema())
	for _, level := range []workload.Level{workload.LevelExact, workload.LevelDisjunction, workload.LevelRange} {
		cases, err := gen.Generate(level, 10, workload.Config{SamplesPerCase: 2, LoosenFraction: 1})
		if err != nil {
			b.Fatal(err)
		}
		if level != workload.LevelRange {
			continue
		}
		for _, tc := range cases {
			related, ok := difftest.Related(db, tc.Spec)
			if !ok {
				b.Fatalf("%s: a target column has no related source column", tc.Name)
			}
			if !heavyRange(tc.Spec, related) {
				continue
			}
			cands, err := graphx.Enumerate(g, related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
			if err != nil {
				b.Fatal(err)
			}
			set, err := filter.DecomposeFor(context.Background(), tc.Spec, cands)
			if err != nil {
				b.Fatal(err)
			}
			heavy = append(heavy, round{spec: tc.Spec, set: set})
		}
	}
	if len(heavy) == 0 {
		b.Fatal("no heavy range round in the pool")
	}
	for _, bc := range []struct {
		name string
		ex   exec.Executor
	}{{"memo", col}, {"no-memo", withoutMemo{col}}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cost exec.ExecStats
			for i := 0; i < b.N; i++ {
				cost = exec.ExecStats{}
				for _, r := range heavy {
					cost.Add(runRound(bc.ex, r).Cost)
				}
			}
			rounds := float64(len(heavy))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N)/rounds, "ms/round")
			b.ReportMetric(float64(cost.RowsScanned)/rounds, "rows-scanned/round")
			b.ReportMetric(float64(cost.SelectionsReused)/rounds, "selections-reused/round")
			b.ReportMetric(rounds, "rounds")
		})
	}
}
