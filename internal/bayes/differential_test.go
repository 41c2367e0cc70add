package bayes

import (
	"math"
	"strings"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
	"prism/internal/workload"
)

// diffFixture pairs the compact model with the map-based oracle trained on
// the same database.
type diffFixture struct {
	t    *testing.T
	db   *mem.Database
	live *Model
	ref  *refModel
	n    int // comparisons made
}

func newDiffFixture(t *testing.T, db *mem.Database) *diffFixture {
	t.Helper()
	db.Analyze()
	return &diffFixture{t: t, db: db, live: Train(db), ref: trainReference(db)}
}

// rememberingSets is a Sets that asks the model once per distinct question,
// as a round's estimator does.
type rememberingSets struct {
	model *Model
	cells map[cellQuestion]*exec.Selection
	both  map[[2]*exec.Selection]*exec.Selection
	pairs map[pairQuestion]int
}

type cellQuestion struct {
	sample, target int
	ref            schema.ColumnRef
}

type pairQuestion struct {
	fk       schema.ForeignKey
	from, to *exec.Selection
}

// remembering returns the model estimating through a fresh rememberingSets.
func remembering(m *Model) *Model {
	return m.Sharing(&rememberingSets{
		model: m,
		cells: make(map[cellQuestion]*exec.Selection),
		both:  make(map[[2]*exec.Selection]*exec.Selection),
		pairs: make(map[pairQuestion]int),
	})
}

func (r *rememberingSets) MatchRows(c ColumnConstraint) (*exec.Selection, bool) {
	q := cellQuestion{c.Sample, c.Target, c.Ref}
	if rows, ok := r.cells[q]; ok {
		return rows, true
	}
	rows, known := r.model.MatchRows(c)
	if known {
		r.cells[q] = rows
	}
	return rows, known
}

func (r *rememberingSets) Intersect(a, b *exec.Selection) *exec.Selection {
	q := [2]*exec.Selection{a, b}
	if _, ok := r.both[q]; !ok {
		r.both[q] = r.model.Intersect(a, b)
	}
	return r.both[q]
}

func (r *rememberingSets) PairHits(fk schema.ForeignKey, from, to *exec.Selection) int {
	q := pairQuestion{fk, from, to}
	if _, ok := r.pairs[q]; !ok {
		r.pairs[q] = r.model.PairHits(fk, from, to)
	}
	return r.pairs[q]
}

// same is == on float64, with NaN equal to itself.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// check requires the oracle, the Model and a remembering view of it (asked
// twice, so the second answer comes from memory) to agree exactly on one
// estimate.
func (fx *diffFixture) check(memo *Model, tables []string, edges []schema.ForeignKey, cons []ColumnConstraint) {
	fx.t.Helper()
	fx.n++
	want := fx.ref.ExpectedMatches(tables, edges, cons)
	if got := fx.live.ExpectedMatches(tables, edges, cons); !same(got, want) {
		fx.t.Errorf("ExpectedMatches(%v, %v, %v) = %v, oracle %v", tables, edges, describe(cons), got, want)
	}
	wantFail := fx.ref.FailureProbability(tables, edges, cons)
	if got := fx.live.FailureProbability(tables, edges, cons); !same(got, wantFail) {
		fx.t.Errorf("FailureProbability(%v, %v, %v) = %v, oracle %v", tables, edges, describe(cons), got, wantFail)
	}
	for pass := 0; pass < 2; pass++ {
		if got := memo.FailureProbability(tables, edges, cons); !same(got, wantFail) {
			fx.t.Errorf("remembering FailureProbability(%v, %v, %v) pass %d = %v, oracle %v", tables, edges, describe(cons), pass, got, wantFail)
		}
	}
	if len(tables) == 1 {
		wantN, wantOK := fx.ref.ExactMatchingRows(tables[0], cons)
		if n, ok := fx.live.ExactMatchingRows(tables[0], cons); n != wantN || ok != wantOK {
			fx.t.Errorf("ExactMatchingRows(%s, %v) = %d,%v, oracle %d,%v", tables[0], describe(cons), n, ok, wantN, wantOK)
		}
		if n, ok := memo.ExactMatchingRows(tables[0], cons); n != wantN || ok != wantOK {
			fx.t.Errorf("remembering ExactMatchingRows(%s, %v) = %d,%v, oracle %d,%v", tables[0], describe(cons), n, ok, wantN, wantOK)
		}
	}
}

func describe(cons []ColumnConstraint) string {
	parts := make([]string, len(cons))
	for i, c := range cons {
		expr := "<nil>"
		if c.Expr != nil {
			expr = c.Expr.String()
		}
		parts[i] = c.Ref.String() + " " + expr
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

// checkTree compares the whole tree, every single edge of it and every
// single table of it under the constraints that fall on them.
func (fx *diffFixture) checkTree(memo *Model, tables []string, edges []schema.ForeignKey, cons []ColumnConstraint) {
	fx.t.Helper()
	on := func(keep ...string) []ColumnConstraint {
		var out []ColumnConstraint
		for _, c := range cons {
			for _, t := range keep {
				if strings.EqualFold(c.Ref.Table, t) {
					out = append(out, c)
				}
			}
		}
		return out
	}
	fx.check(memo, tables, edges, cons)
	for _, e := range edges {
		pair := []string{e.From.Table, e.To.Table}
		fx.check(memo, pair, []schema.ForeignKey{e}, on(pair...))
	}
	for _, t := range tables {
		fx.check(memo, []string{t}, nil, on(t))
	}
}

// exprBattery builds one constraint of every lang.ValueExpr kind (every
// comparison operator included) around two values of a column.
func exprBattery(a, b value.Value) []lang.ValueExpr {
	lo, hi := a, b
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	out := []lang.ValueExpr{
		lang.Keyword{Word: a.String()},
		lang.Keyword{Word: "no such value"},
		lang.Keyword{Word: ""},
		lang.Range{Lo: lo, Hi: hi},
		lang.And{Terms: []lang.ValueExpr{lang.Compare{Op: lang.OpGe, Const: lo}, lang.Compare{Op: lang.OpLe, Const: hi}}},
		lang.And{Terms: []lang.ValueExpr{lang.Keyword{Word: a.String()}, lang.Keyword{Word: b.String()}}},
		lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: a.String()}, lang.Keyword{Word: b.String()}}},
		lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: a.String()}, lang.Compare{Op: lang.OpEq, Const: b}}},
		// A disjunction that starts equality-shaped and then is not.
		lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: a.String()}, lang.Compare{Op: lang.OpGt, Const: hi}}},
		lang.Not{Term: lang.Keyword{Word: a.String()}},
		lang.Not{Term: lang.Range{Lo: lo, Hi: hi}},
		lang.Not{Term: lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: a.String()}, lang.Keyword{Word: b.String()}}}},
	}
	for _, op := range []lang.BinOp{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe} {
		out = append(out, lang.Compare{Op: op, Const: a}, lang.Compare{Op: op, Const: value.NewText(b.String())})
	}
	return out
}

// checkBattery runs the expression battery over every column of the
// database: alone on its table, across every foreign key of the table, and
// paired with a constraint on the key's other table.
func (fx *diffFixture) checkBattery() {
	fx.t.Helper()
	sch := fx.db.Schema()
	pick := func(table string, ci int) (a, b value.Value) {
		rows, _ := fx.db.SampleRows(table, 0)
		for _, at := range []int{0, len(rows) / 2, len(rows) - 1} {
			if at < 0 || at >= len(rows) {
				continue
			}
			if v := rows[at][ci]; !v.IsNull() {
				a, b = b, v
			}
		}
		if a.IsNull() {
			a = b
		}
		return a, b
	}
	for _, t := range sch.Tables() {
		for ci, col := range t.Columns {
			a, b := pick(t.Name, ci)
			if b.IsNull() {
				continue
			}
			colRef := schema.ColumnRef{Table: t.Name, Column: col.Name}
			for xi, e := range exprBattery(a, b) {
				memo := remembering(fx.live)
				cons := []ColumnConstraint{{Ref: colRef, Expr: e, Target: xi}}
				fx.check(memo, []string{t.Name}, nil, cons)
				for _, fk := range edgesOf(sch, t.Name) {
					tables := []string{fk.From.Table, fk.To.Table}
					edges := []schema.ForeignKey{fk}
					fx.check(memo, tables, edges, cons)
					other := fk.To
					if strings.EqualFold(other.Table, t.Name) {
						other = fk.From
					}
					ot, _ := sch.Table(other.Table)
					oa, ob := pick(ot.Name, 0)
					if ob.IsNull() {
						continue
					}
					both := append(cons[:1:1], ColumnConstraint{
						Ref:    schema.ColumnRef{Table: ot.Name, Column: ot.Columns[0].Name},
						Expr:   lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: oa.String()}, lang.Keyword{Word: ob.String()}}},
						Sample: 1,
					})
					fx.check(memo, tables, edges, both)
				}
			}
		}
	}
}

// checkGenerated compares the estimates of generated specifications at every
// resolution level: the constraints of each sample row on the ground-truth
// tree, its edges and its tables.
func (fx *diffFixture) checkGenerated(mappings []workload.GroundTruthMapping) {
	fx.t.Helper()
	gen, err := workload.NewGenerator(fx.db, 1, mappings)
	if err != nil {
		fx.t.Fatal(err)
	}
	levels := append(workload.Levels(), workload.LevelPaper)
	for _, level := range levels {
		cases, err := gen.Generate(level, 2*len(gen.Mappings()), workload.Config{SamplesPerCase: 2})
		if err != nil {
			fx.t.Fatal(err)
		}
		for _, tc := range cases {
			memo := remembering(fx.live)
			edges := make([]schema.ForeignKey, len(tc.GroundTruth.Joins))
			for i, j := range tc.GroundTruth.Joins {
				edges[i] = schema.ForeignKey{From: j.Left, To: j.Right}
			}
			for si, sample := range tc.Spec.Samples {
				var cons []ColumnConstraint
				for ti, cell := range sample.Cells {
					if cell != nil {
						cons = append(cons, ColumnConstraint{
							Ref: tc.GroundTruth.Project[ti], Expr: cell,
							Sample: si, Target: ti,
						})
					}
				}
				fx.checkTree(memo, tc.GroundTruth.Tables, edges, cons)
			}
		}
	}
}

// checkRanges asks every column for pure numeric ranges — the shape the
// model answers from its sorted views instead of evaluating the expression —
// around the numeric views of up to eight of its stored values: bounds equal
// to stored views, as Int and as Decimal constants, one bound stored and one
// between values, bounds the wrong way round, the two zeros, and the whole
// line. Each is asked alone on its table and across every foreign key of it.
func (fx *diffFixture) checkRanges() {
	fx.t.Helper()
	sch := fx.db.Schema()
	for _, t := range sch.Tables() {
		rows, _ := fx.db.SampleRows(t.Name, 0)
		for ci, col := range t.Columns {
			var views []float64
			step := max(1, len(rows)/8)
			for at := 0; at < len(rows); at += step {
				if f, ok := rows[at][ci].Float(); ok && !math.IsNaN(f) && !math.IsInf(f, 0) {
					views = append(views, f)
				}
			}
			views = append(views, 0) // every column is asked, also one without views
			var ranges []lang.Range
			for i, f := range views {
				g := views[(i+1)%len(views)]
				ranges = append(ranges,
					lang.Range{Lo: value.NewDecimal(f), Hi: value.NewDecimal(f)},
					lang.Range{Lo: value.NewInt(int64(f)), Hi: value.NewInt(int64(f))},
					lang.Range{Lo: value.NewDecimal(min(f, g)), Hi: value.NewDecimal(max(f, g))},
					lang.Range{Lo: value.NewDecimal(max(f, g)), Hi: value.NewDecimal(min(f, g) - 1)},
					lang.Range{Lo: value.NewDecimal(f - 0.25), Hi: value.NewDecimal(f)},
					lang.Range{Lo: value.NewDecimal(f), Hi: value.NewDecimal(f + 0.25)},
				)
			}
			negZero := math.Copysign(0, -1)
			ranges = append(ranges,
				lang.Range{Lo: value.NewDecimal(negZero), Hi: value.NewDecimal(0)},
				lang.Range{Lo: value.NewDecimal(0), Hi: value.NewDecimal(negZero)},
				lang.Range{Lo: value.NewDecimal(-math.MaxFloat64), Hi: value.NewDecimal(math.MaxFloat64)},
				lang.Range{Lo: value.NewDecimal(math.Inf(-1)), Hi: value.NewDecimal(math.Inf(1))},
			)
			colRef := schema.ColumnRef{Table: t.Name, Column: col.Name}
			for xi, r := range ranges {
				if _, exact := lang.ExactRangeBounds(r); !exact {
					fx.t.Fatalf("%s is not a pure numeric range", r)
				}
				memo := remembering(fx.live)
				cons := []ColumnConstraint{{Ref: colRef, Expr: r, Target: xi}}
				fx.check(memo, []string{t.Name}, nil, cons)
				for _, fk := range edgesOf(sch, t.Name) {
					fx.check(memo, []string{fk.From.Table, fk.To.Table}, []schema.ForeignKey{fk}, cons)
				}
			}
		}
	}
}

// checkUnknowns covers the branches that answer without a match set.
func (fx *diffFixture) checkUnknowns() {
	fx.t.Helper()
	sch := fx.db.Schema()
	fk := sch.ForeignKeys()[0]
	tables := []string{fk.From.Table, fk.To.Table}
	edges := []schema.ForeignKey{fk}
	kw := lang.Keyword{Word: "x"}
	rng := lang.Range{Lo: value.NewInt(0), Hi: value.NewInt(10)}
	outside := sch.Tables()[len(sch.Tables())-1].Name
	for i, cons := range [][]ColumnConstraint{
		nil,
		{{Ref: schema.ColumnRef{Table: fk.From.Table, Column: "no_such_column"}, Expr: kw}},
		{{Ref: fk.From, Expr: nil}},
		{{Ref: schema.ColumnRef{Table: "no_such_table", Column: "c"}, Expr: kw}},
		{{Ref: schema.ColumnRef{Table: outside, Column: sch.Tables()[len(sch.Tables())-1].Columns[0].Name}, Expr: rng}},
		{{Ref: schema.ColumnRef{Table: strings.ToUpper(fk.To.Table), Column: strings.ToLower(fk.To.Column)}, Expr: rng}},
	} {
		for ci := range cons {
			cons[ci].Sample, cons[ci].Target = i, ci
		}
		memo := remembering(fx.live)
		fx.check(memo, tables, edges, cons)
		fx.check(memo, tables[:1], nil, cons)
		fx.check(memo, tables[:1], edges, cons)                          // an edge whose far table the filter lacks
		fx.check(memo, []string{"no_such_table"}, nil, cons)             // unknown relation
		fx.check(memo, tables, []schema.ForeignKey{{From: fk.To}}, cons) // unknown edge
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	mondial, err := dataset.Mondial(dataset.DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	imdb, err := dataset.IMDB(dataset.DefaultIMDBConfig())
	if err != nil {
		t.Fatal(err)
	}
	nba, err := dataset.NBA(dataset.DefaultNBAConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*mem.Database{mondial, imdb, nba, difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)} {
		db := db
		t.Run(db.Name, func(t *testing.T) {
			fx := newDiffFixture(t, db)
			mappings := difftest.DerivedMappings(db.Schema())
			if db == mondial {
				mappings = append(workload.MondialGroundTruths(), mappings...)
			}
			fx.checkGenerated(mappings)
			fx.checkBattery()
			fx.checkRanges()
			fx.checkUnknowns()
			t.Logf("%d estimates compared", fx.n)
		})
	}
}

// edgesOf returns the foreign keys incident to the named table.
func edgesOf(sch *schema.Schema, table string) []schema.ForeignKey {
	var out []schema.ForeignKey
	for _, fk := range sch.ForeignKeys() {
		if strings.EqualFold(fk.From.Table, table) || strings.EqualFold(fk.To.Table, table) {
			out = append(out, fk)
		}
	}
	return out
}
