// Package difftest builds the inputs shared by the differential tests of a
// round's front half (graphx, filter, sched, bayes) and of the executors
// (colexec): the bundled databases and a small one of corner cases, over
// each a pool of workload-generator specifications with their related
// columns, the way a discovery round finds them, and a random generator of
// validation-shaped plans and predicates. It is imported by tests only.
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
	"prism/internal/workload"
)

// Round is one specification with the related source columns of its target
// columns: the input of candidate enumeration.
type Round struct {
	Name    string
	Spec    *constraint.Spec
	Related [][]schema.ColumnRef
}

// Databases returns the analysed demo-size Mondial, IMDB and NBA databases
// by name.
func Databases(t testing.TB) map[string]*mem.Database {
	t.Helper()
	out := make(map[string]*mem.Database)
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db.Analyze()
		out[name] = db
	}
	return out
}

// LowresMondialConfig is the 10.7k-row Mondial of the benchmark's
// oneshot_lowres workload: large enough that every builder has real columns
// to split over cores, small enough for a unit test under the race detector.
func LowresMondialConfig() dataset.MondialConfig {
	return dataset.MondialConfig{Seed: 1, Countries: 20, ProvincesPerCountry: 8, CitiesPerProvince: 8,
		Lakes: 1500, Rivers: 1000, Mountains: 800}
}

// ScaleMondialConfig is the 230k-row Mondial of the benchmark's
// oneshot_scale workload.
func ScaleMondialConfig() dataset.MondialConfig {
	return dataset.MondialConfig{Seed: 1, Countries: 60, ProvincesPerCountry: 20, CitiesPerProvince: 40,
		Lakes: 30000, Rivers: 20000, Mountains: 15000}
}

// Quirks returns a three-table chain, not yet analysed, built to hold what
// the bundled data sets lack: NULLs in constrained and in join columns,
// dangling and many-to-many keys, and text values that share a key without
// being equal ("ABC"/"abc", "3"/"3.0").
func Quirks(t testing.TB) *mem.Database {
	t.Helper()
	s := schema.New()
	for _, tab := range []*schema.Table{
		schema.MustTable("Parent",
			schema.Column{Name: "Tag", Type: value.Text},
			schema.Column{Name: "Score", Type: value.Decimal},
			schema.Column{Name: "Id", Type: value.Int}),
		schema.MustTable("Child",
			schema.Column{Name: "Label", Type: value.Text},
			schema.Column{Name: "Parent", Type: value.Int},
			schema.Column{Name: "Day", Type: value.Date}),
		schema.MustTable("Grand",
			schema.Column{Name: "Label", Type: value.Text},
			schema.Column{Name: "Weight", Type: value.Int}),
	} {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	for _, fk := range []schema.ForeignKey{
		{From: schema.ColumnRef{Table: "Child", Column: "Parent"}, To: schema.ColumnRef{Table: "Parent", Column: "Id"}},
		{From: schema.ColumnRef{Table: "Grand", Column: "Label"}, To: schema.ColumnRef{Table: "Child", Column: "Label"}},
	} {
		if err := s.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	db := mem.NewDatabase("quirks", s)
	null := value.NullValue
	insert := func(table string, vs ...value.Value) {
		if err := db.Insert(table, vs); err != nil {
			t.Fatal(err)
		}
	}
	tags := []string{"ABC", "abc", "3", "3.0", "Abc", "", "x y", "3.00", "7"}
	for i := 0; i < 40; i++ {
		tag, score := value.NewText(tags[i%len(tags)]), value.NewDecimal(float64(i%7)*1.5)
		if tags[i%len(tags)] == "" {
			tag = null
		}
		if i%5 == 0 {
			score = null
		}
		insert("Parent", tag, score, value.NewInt(int64(i%30))) // ids 0..9 appear twice
	}
	labels := []string{"red", "RED", "green", "blue", "Blue"}
	for i := 0; i < 90; i++ {
		parent := value.NewInt(int64(i % 35)) // 30..34 dangle
		if i%11 == 0 {
			parent = null
		}
		label := value.NewText(labels[i%len(labels)])
		if i%13 == 0 {
			label = null
		}
		insert("Child", label, parent, value.NewDateYMD(2020, 1, 1+i%20))
	}
	for i := 0; i < 25; i++ {
		label := value.NewText(labels[(i*2)%len(labels)])
		if i%6 == 0 {
			label = null
		}
		insert("Grand", label, value.NewInt(int64(i%4)))
	}
	return db
}

// Rounds generates the pool over db: perLevel specifications at every
// resolution level and at the paper's mixed level, two sample rows each, and
// two of the low-resolution recipe — metadata on every column and no sample
// value — whose rounds run to a thousand candidates. Ground truths are
// Mondial's library when db has its tables, and are derived from the
// schema's foreign keys otherwise.
func Rounds(t testing.TB, db *mem.Database, perLevel int) []Round {
	t.Helper()
	mappings := DerivedMappings(db.Schema())
	if _, ok := db.Schema().Table("geo_lake"); ok {
		mappings = workload.MondialGroundTruths()
	}
	gen, err := workload.NewGenerator(db, 1, mappings)
	if err != nil {
		t.Fatal(err)
	}
	var out []Round
	add := func(level workload.Level, count int, cfg workload.Config) {
		cases, err := gen.Generate(level, count, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			if related, ok := Related(db, tc.Spec); ok {
				out = append(out, Round{Name: tc.Name, Spec: tc.Spec, Related: related})
			}
		}
	}
	for _, level := range append(workload.Levels(), workload.LevelPaper) {
		add(level, perLevel, workload.Config{SamplesPerCase: 2})
	}
	add(workload.LevelMetadata, 2, workload.Config{SamplesPerCase: 1, LoosenFraction: 1})
	if len(out) == 0 {
		t.Fatal("no rounds generated")
	}
	return out
}

// Related finds, per target column, the source columns a discovery round
// would relate to it (discovery.Engine.RelatedColumns, without an engine).
// ok is false when some target column has none.
func Related(db *mem.Database, spec *constraint.Spec) (related [][]schema.ColumnRef, ok bool) {
	related = make([][]schema.ColumnRef, spec.NumColumns)
	for col := range related {
		for _, st := range db.AllStats() {
			ref := st.Ref
			has := func(kw string) bool { return db.ColumnHasKeyword(ref, kw) }
			if spec.ColumnFeasible(col, st, has) {
				related[col] = append(related[col], ref)
			}
		}
		if len(related[col]) == 0 {
			return related, false
		}
	}
	return related, true
}

// DerivedMappings turns a schema's foreign keys into ground-truth mappings
// for the workload generator: one two-table join per key and one three-table
// chain per pair of keys that share a table, projecting the first two
// columns of every table.
func DerivedMappings(sch *schema.Schema) []workload.GroundTruthMapping {
	project := func(tables ...string) []schema.ColumnRef {
		var out []schema.ColumnRef
		for _, name := range tables {
			t, _ := sch.Table(name)
			for i, c := range t.Columns {
				if i < 2 {
					out = append(out, schema.ColumnRef{Table: t.Name, Column: c.Name})
				}
			}
		}
		return out
	}
	join := func(fk schema.ForeignKey) exec.JoinEdge { return exec.JoinEdge{Left: fk.From, Right: fk.To} }
	var out []workload.GroundTruthMapping
	fks := sch.ForeignKeys()
	for i, a := range fks {
		out = append(out, workload.GroundTruthMapping{
			Name: fmt.Sprintf("fk%d", i),
			Plan: exec.Plan{Tables: []string{a.From.Table, a.To.Table}, Joins: []exec.JoinEdge{join(a)}, Project: project(a.From.Table, a.To.Table)},
		})
		for j := i + 1; j < len(fks); j++ {
			b := fks[j]
			tables := map[string]struct{}{a.From.Table: {}, a.To.Table: {}, b.From.Table: {}, b.To.Table: {}}
			if len(tables) != 3 {
				continue
			}
			var names []string
			for _, t := range []string{a.From.Table, a.To.Table, b.From.Table, b.To.Table} {
				if _, fresh := tables[t]; fresh {
					names = append(names, t)
					delete(tables, t)
				}
			}
			out = append(out, workload.GroundTruthMapping{
				Name: fmt.Sprintf("fk%d-fk%d", i, j),
				Plan: exec.Plan{Tables: names, Joins: []exec.JoinEdge{join(a), join(b)}, Project: project(names...)},
			})
		}
	}
	return out
}

// Plans derives validation-shaped Project-Join plans from the dataset's
// own schema: every single table, every foreign-key pair, and two-edge
// chains — the shapes filter.DecomposeFor produces — each projecting
// columns, and then every foreign-key pair again with nothing projected,
// the non-emptiness probe of a filter that constrains none of its columns.
func Plans(sch *schema.Schema) []exec.Plan {
	var plans []exec.Plan
	for _, t := range sch.Tables() {
		n := min(2, len(t.Columns))
		var proj []schema.ColumnRef
		for i := 0; i < n; i++ {
			proj = append(proj, schema.ColumnRef{Table: t.Name, Column: t.Columns[i].Name})
		}
		plans = append(plans, exec.Plan{Tables: []string{t.Name}, Project: proj})
	}
	fks := sch.ForeignKeys()
	for _, fk := range fks {
		plans = append(plans, exec.Plan{
			Tables:  []string{fk.From.Table, fk.To.Table},
			Joins:   []exec.JoinEdge{{Left: fk.From, Right: fk.To}},
			Project: []schema.ColumnRef{fk.From, fk.To},
		})
	}
chains:
	for i, a := range fks {
		for _, b := range fks[i+1:] {
			p, ok := chainPlan(a, b)
			if ok {
				plans = append(plans, p)
			}
			if len(plans) > 24 {
				break chains
			}
		}
	}
	for _, fk := range fks {
		plans = append(plans, exec.Plan{
			Tables: []string{fk.From.Table, fk.To.Table},
			Joins:  []exec.JoinEdge{{Left: fk.From, Right: fk.To}},
		})
	}
	return plans
}

// chainPlan joins two foreign keys sharing exactly one table into a
// three-table chain plan.
func chainPlan(a, b schema.ForeignKey) (exec.Plan, bool) {
	tables := []string{a.From.Table, a.To.Table}
	var third string
	switch {
	case eqFold(b.From.Table, a.From.Table) && !eqFold(b.To.Table, a.To.Table):
		third = b.To.Table
	case eqFold(b.From.Table, a.To.Table) && !eqFold(b.To.Table, a.From.Table):
		third = b.To.Table
	case eqFold(b.To.Table, a.From.Table) && !eqFold(b.From.Table, a.To.Table):
		third = b.From.Table
	case eqFold(b.To.Table, a.To.Table) && !eqFold(b.From.Table, a.From.Table):
		third = b.From.Table
	default:
		return exec.Plan{}, false
	}
	tables = append(tables, third)
	return exec.Plan{
		Tables: tables,
		Joins: []exec.JoinEdge{
			{Left: a.From, Right: a.To},
			{Left: b.From, Right: b.To},
		},
		Project: []schema.ColumnRef{a.From, b.To},
	}, true
}

func eqFold(a, b string) bool {
	return value.Normalize(a) == value.Normalize(b)
}

// RandomPredicates builds execution options carrying random predicates over
// the plan's tables: keyword-equality predicates seeded from stored values
// (mostly satisfiable), nonsense keywords (unsatisfiable), numeric bounds
// (exact or merely covering), and bare scan-shaped predicates, optionally
// with a tuple predicate.
func RandomPredicates(rng *rand.Rand, db *mem.Database, p exec.Plan) exec.ExecOptions {
	var opts exec.ExecOptions
	nPreds := rng.Intn(4)
	for k := 0; k < nPreds; k++ {
		tbl := p.Tables[rng.Intn(len(p.Tables))]
		ts, ok := db.Schema().Table(tbl)
		if !ok || len(ts.Columns) == 0 {
			continue
		}
		col := ts.Columns[rng.Intn(len(ts.Columns))].Name
		ref := schema.ColumnRef{Table: tbl, Column: col}
		vals, err := db.ColumnValues(ref)
		if err != nil {
			continue
		}
		switch rng.Intn(4) {
		case 0: // keyword equality on a stored value
			v, ok := pickNonNull(rng, vals)
			if !ok {
				continue
			}
			kw := v.String()
			opts.ColumnPredicates = append(opts.ColumnPredicates, exec.ColumnPredicate{
				Ref:      ref,
				Pred:     func(c value.Value) bool { return c.MatchesKeyword(kw) },
				Keywords: []string{kw},
			})
		case 1: // nonsense keyword: provably unsatisfiable
			kw := fmt.Sprintf("zz-no-such-value-%d", rng.Intn(1000))
			opts.ColumnPredicates = append(opts.ColumnPredicates, exec.ColumnPredicate{
				Ref:      ref,
				Pred:     func(c value.Value) bool { return c.MatchesKeyword(kw) },
				Keywords: []string{kw},
			})
		case 2: // numeric bounds around a stored value
			f, ok := pickNumeric(rng, vals)
			if !ok {
				continue
			}
			lo, hi := f-1, f+1
			opts.ColumnPredicates = append(opts.ColumnPredicates, exec.ColumnPredicate{
				Ref: ref,
				Pred: func(c value.Value) bool {
					cf, ok := c.Float()
					return ok && cf >= lo && cf <= hi
				},
				Bounds: &exec.NumericBounds{Lo: lo, Hi: hi, HasLo: true, HasHi: true},
				// The interval is the predicate: half the time say so, and
				// the executor answers from numeric views, not from Pred.
				BoundsExact: rng.Intn(2) == 0,
			})
		default: // scan-shaped: no keyword or bounds cover
			opts.ColumnPredicates = append(opts.ColumnPredicates, exec.ColumnPredicate{
				Ref:  ref,
				Pred: func(c value.Value) bool { return !c.IsNull() },
			})
		}
	}
	if rng.Intn(3) == 0 {
		opts.TuplePredicate = func(t value.Tuple) bool {
			return len(t) > 0 && len(t[0].String())%2 == 0
		}
	}
	return opts
}

func pickNonNull(rng *rand.Rand, vals []value.Value) (value.Value, bool) {
	for try := 0; try < 8 && len(vals) > 0; try++ {
		v := vals[rng.Intn(len(vals))]
		if !v.IsNull() {
			return v, true
		}
	}
	return value.Value{}, false
}

func pickNumeric(rng *rand.Rand, vals []value.Value) (float64, bool) {
	for try := 0; try < 8 && len(vals) > 0; try++ {
		if f, ok := vals[rng.Intn(len(vals))].Float(); ok {
			return f, true
		}
	}
	return 0, false
}

// BigJoin holds one foreign key with 631 × 201 = 126831 joined
// pairs, above the sampling budget of the Bayesian model
// (bayes.maxJoinPairSample), so its join statistics keep every second
// pair. A key's pair count is odd for one key and even for the others, and
// the non-key columns follow the parity of a row's position within its key,
// so the order in which pairs are enumerated decides which ones are kept and
// shows in the estimates.
func BigJoin(t testing.TB) *mem.Database {
	t.Helper()
	s := schema.New()
	for _, tab := range []*schema.Table{
		schema.MustTable("Many",
			schema.Column{Name: "Key", Type: value.Text},
			schema.Column{Name: "Shade", Type: value.Int}),
		schema.MustTable("One",
			schema.Column{Name: "Key", Type: value.Text},
			schema.Column{Name: "Size", Type: value.Int}),
	} {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "Many", Column: "Key"},
		To:   schema.ColumnRef{Table: "One", Column: "Key"},
	}); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("bigjoin", s)
	keys := []string{"north", "south", "east"}
	for i := 0; i < 631; i++ {
		if err := db.Insert("Many", value.Tuple{value.NewText(keys[i%3]), value.NewInt(int64(i / 3 % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 603; i++ {
		if err := db.Insert("One", value.Tuple{value.NewText(keys[i%3]), value.NewInt(int64(i / 3 % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Ranges holds what a pure numeric range can meet in a column and
// the bundled data lacks: text that looks numeric beside text that does not
// ("3", "3.0" and " 3" share a key and a view; "nan" has a view no range
// accepts; "inf" one only the whole line does), the two zeros as decimals
// and as text, NaN and the infinities stored as decimals, integers too large
// for a float to tell apart, dates and times (their view is a count of
// seconds), and a column that is NULL in every row.
func Ranges(t testing.TB) *mem.Database {
	t.Helper()
	s := schema.New()
	for _, tab := range []*schema.Table{
		schema.MustTable("Reading",
			schema.Column{Name: "Txt", Type: value.Text},
			schema.Column{Name: "Dec", Type: value.Decimal},
			schema.Column{Name: "Num", Type: value.Int},
			schema.Column{Name: "Day", Type: value.Date},
			schema.Column{Name: "At", Type: value.Time},
			schema.Column{Name: "Void", Type: value.Int},
			schema.Column{Name: "Station", Type: value.Int}),
		schema.MustTable("Station",
			schema.Column{Name: "Id", Type: value.Int},
			schema.Column{Name: "Height", Type: value.Decimal}),
	} {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "Reading", Column: "Station"},
		To:   schema.ColumnRef{Table: "Station", Column: "Id"},
	}); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("ranges", s)
	null := value.NullValue
	texts := []string{"3", "3.0", " 3", "3.00", "nan", "NaN", "inf", "-Inf", "-0", "0", "+0", "0.0", "abc", "1e2", "7", "2.5", "", "0x10", "-2.5"}
	decs := []float64{math.Copysign(0, -1), 0, 1.5, 3, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), -2.5, 3, 1e300, -1e300}
	nums := []int64{0, 1, 2, 3, 3, 5, 8, -4, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	for i := 0; i < 95; i++ {
		txt := value.NewText(texts[i%len(texts)])
		if texts[i%len(texts)] == "" {
			txt = null
		}
		dec := value.NewDecimal(decs[i%len(decs)])
		if i%9 == 0 {
			dec = null
		}
		station := value.NewInt(int64(i % 6)) // 5 dangles
		if i%10 == 0 {
			station = null
		}
		if err := db.Insert("Reading", value.Tuple{txt, dec, value.NewInt(nums[i%len(nums)]),
			value.NewDateYMD(2019+i%3, 1+time.Month(i%12), 1+i%28), value.NewTimeHMS(i%24, i%60, (i*7)%60),
			null, station}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := db.Insert("Station", value.Tuple{value.NewInt(int64(i)), value.NewDecimal(float64(i) * 250.5)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
