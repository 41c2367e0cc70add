package colexec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// sameCell reports whether two cells are the same spelling of a value:
// EqualStrict, and two decimals of the same bits, so that -0 is not 0 and a
// NaN is the NaN it copies (EqualStrict compares decimals with ==).
func sameCell(a, b value.Value) bool {
	if a.Kind() == value.Decimal && b.Kind() == value.Decimal {
		return math.Float64bits(a.Decimal()) == math.Float64bits(b.Decimal())
	}
	return a.EqualStrict(b)
}

// sameSpelling requires got to be want row for row, cell for cell by
// sameCell: the same rows in the same order, each kept in the spelling the
// reference kept.
func sameSpelling(t *testing.T, label string, got, want []value.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows %v, mem %d rows %v", label, len(got), got, len(want), want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d is %v, mem %v", label, i, got[i], want[i])
		}
		for j := range got[i] {
			if !sameCell(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d is %v, mem %v", label, i, got[i], want[i])
			}
		}
	}
}

// checkDistinct runs plan as a Distinct plan at Limit 0, 1, 2 and 10 on
// both executors and requires colexec to return mem's rows in mem's order
// and spelling. mkOpts builds the options afresh for each execution.
func checkDistinct(t *testing.T, label string, col exec.Executor, db *mem.Database, plan exec.Plan, mkOpts func() exec.ExecOptions) {
	t.Helper()
	plan.Distinct = true
	for _, limit := range []int{0, 1, 2, 10} {
		opts := mkOpts()
		opts.Limit = limit
		want, err := db.ExecuteWith(plan, opts)
		if err != nil {
			t.Fatalf("%s limit %d: mem: %v", label, limit, err)
		}
		opts = mkOpts()
		opts.Limit = limit
		got, err := col.ExecuteWith(plan, opts)
		if err != nil {
			t.Fatalf("%s limit %d: colexec: %v", label, limit, err)
		}
		sameSpelling(t, fmt.Sprintf("%s limit %d", label, limit), got.Rows, want.Rows)
		if got.Stats.ResultRows != len(got.Rows) || got.Stats.TerminatedEarly != (limit > 0 && len(got.Rows) == limit) {
			t.Fatalf("%s limit %d: %d rows, stats %+v", label, limit, len(got.Rows), got.Stats)
		}
	}
}

// spellingsDB is a two-table database whose columns hold, more than once
// and interleaved, the spellings DISTINCT must keep apart or merge: Lake,
// LAKE and lake (one class) beside "lake " (another); 3, 3.0 and " 3" as
// text; -0 and 0, and NaNs of three payloads, as decimals; NULL beside
// empty text; texts whose keys, joined with a separator, would spell
// another pair's; and rows that are NULL in one projected column where
// another row holds the first value id of the other.
func spellingsDB(t testing.TB) *mem.Database {
	t.Helper()
	sch := schema.New()
	for _, tab := range []*schema.Table{
		schema.MustTable("Item",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Amount", Type: value.Decimal},
			schema.Column{Name: "Code", Type: value.Text},
			schema.Column{Name: "Grp", Type: value.Int}),
		schema.MustTable("Grp",
			schema.Column{Name: "Id", Type: value.Int},
			schema.Column{Name: "Label", Type: value.Text}),
	} {
		if err := sch.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := sch.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "Item", Column: "Grp"},
		To:   schema.ColumnRef{Table: "Grp", Column: "Id"},
	}); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("spellings", sch)
	insert := func(table string, vs ...value.Value) {
		t.Helper()
		if err := db.Insert(table, vs); err != nil {
			t.Fatal(err)
		}
	}
	null := value.NullValue
	text := value.NewText
	names := []value.Value{text("Lake"), text("LAKE"), text("lake "), text("lake"), null, text(""),
		text("a|t:b"), text("a"), text("3"), text("3.0"), text(" 3"), text("Lake")}
	amounts := []value.Value{value.NewDecimal(3), value.NewDecimal(math.Copysign(0, -1)), value.NewDecimal(0),
		value.NewDecimal(math.Float64frombits(0x7ff8000000000001)), value.NewDecimal(math.Float64frombits(0xfff8000000000000)),
		value.NewDecimal(math.NaN()), null, value.NewDecimal(1.5), value.NewDecimal(3.0)}
	codes := []value.Value{text("c"), text("b|t:c"), text(""), null, text("C")}
	for i := 0; i < 60; i++ {
		insert("Item", names[i%len(names)], amounts[i%len(amounts)], codes[i%len(codes)], value.NewInt(int64(i%4)))
	}
	for _, row := range []value.Tuple{
		{text("a|t:b"), null, text("c"), value.NewInt(1)},
		{text("a"), null, text("b|t:c"), value.NewInt(1)},
		{null, null, text("c"), value.NewInt(2)},
		{text("Lake"), null, null, value.NewInt(2)},
		{text(""), null, null, value.NewInt(0)},
		{null, null, text(""), value.NewInt(0)},
	} {
		insert("Item", row...)
	}
	for i, label := range []string{"x", "y", "X", "y "} {
		insert("Grp", value.NewInt(int64(i%3)), text(label)) // id 0 twice, 3 dangles
	}
	db.Analyze()
	return db
}

// spellingPlans are spellingsDB's projections: each column alone, pairs in
// both orders, all three, through the join (whose id-0 rows repeat every
// item of group 0), and nothing at all.
func spellingPlans() []exec.Plan {
	item := func(cols ...string) exec.Plan {
		p := exec.Plan{Tables: []string{"Item"}}
		for _, c := range cols {
			p.Project = append(p.Project, ref("Item", c))
		}
		return p
	}
	joined := func(cols ...schema.ColumnRef) exec.Plan {
		return exec.Plan{
			Tables:  []string{"Item", "Grp"},
			Joins:   []exec.JoinEdge{{Left: ref("Item", "Grp"), Right: ref("Grp", "Id")}},
			Project: cols,
		}
	}
	return []exec.Plan{
		item("Name"), item("Amount"), item("Code"),
		item("Name", "Code"), item("Code", "Name"), item("Name", "Amount"), item("Amount", "Code"),
		item("Name", "Amount", "Code"), item("Grp", "Name"),
		joined(ref("Grp", "Label"), ref("Item", "Name")),
		joined(ref("Item", "Name"), ref("Item", "Code")),
		joined(ref("Item", "Amount"), ref("Grp", "Label"), ref("Item", "Code")),
		joined(),
	}
}

// rejectFirstSpellings turns down the first spelling of several classes
// (Lake, 3, -0 and the first NaN), so DISTINCT keeps a later one — and
// must not count a row it turned down as kept.
func rejectFirstSpellings(tup value.Tuple) bool {
	for _, v := range tup {
		switch {
		case v.EqualStrict(value.NewText("Lake")), v.EqualStrict(value.NewText("3")), v.EqualStrict(value.NewText("c")):
			return false
		case v.Kind() == value.Decimal && (math.Signbit(v.Decimal()) || math.Float64bits(v.Decimal()) == 0x7ff8000000000001):
			return false
		}
	}
	return true
}

// TestDistinctMatchesReference runs Distinct plans at Limit 0, 1, 2 and 10
// through colexec and mem and requires the same rows, in the same order and
// the same spelling: the validation-shaped plans of every bundled database,
// of difftest.Quirks and difftest.Ranges under random predicates, and the
// projections of spellingsDB with and without a tuple predicate that turns
// a class's first spelling down.
func TestDistinctMatchesReference(t *testing.T) {
	dbs := difftest.Databases(t)
	for name, db := range map[string]*mem.Database{"quirks": difftest.Quirks(t), "ranges": difftest.Ranges(t)} {
		db.Analyze()
		dbs[name] = db
	}
	for name, db := range dbs {
		col := build(t, db)
		rng := rand.New(rand.NewSource(57))
		for pi, plan := range difftest.Plans(db.Schema()) {
			checkDistinct(t, fmt.Sprintf("%s plan %d %v", name, pi, plan.Project), col, db, plan, func() exec.ExecOptions { return exec.ExecOptions{} })
			for round := 0; round < 3; round++ {
				opts := difftest.RandomPredicates(rng, db, plan)
				label := fmt.Sprintf("%s plan %d %v round %d", name, pi, plan.Project, round)
				checkDistinct(t, label, col, db, plan, func() exec.ExecOptions { return opts })
			}
		}
	}
	db := spellingsDB(t)
	col := build(t, db)
	kept := 0
	for pi, plan := range spellingPlans() {
		for _, pred := range []func(value.Tuple) bool{nil, rejectFirstSpellings} {
			label := fmt.Sprintf("spellings plan %d %v predicate=%v", pi, plan.Project, pred != nil)
			checkDistinct(t, label, col, db, plan, func() exec.ExecOptions { return exec.ExecOptions{TuplePredicate: pred} })
		}
		res, err := db.Execute(exec.Plan{Tables: plan.Tables, Joins: plan.Joins, Project: plan.Project, Distinct: true})
		if err != nil {
			t.Fatal(err)
		}
		kept += len(res.Rows)
	}
	// The planted classes: Name keeps Lake, "lake ", NULL, "", a|t:b, a
	// and 3 (3.0 and " 3" are 3's class); Amount keeps 3, -0 (0's class),
	// one NaN, NULL and 1.5; Code keeps c (C's class too), b|t:c, "" and
	// NULL.
	for _, c := range []struct {
		col  string
		want int
	}{{"Name", 7}, {"Amount", 5}, {"Code", 4}} {
		res, err := col.ExecuteWith(exec.Plan{Tables: []string{"Item"}, Project: []schema.ColumnRef{ref("Item", c.col)}, Distinct: true}, exec.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("DISTINCT %s keeps %d rows %v, want %d", c.col, len(res.Rows), res.Rows, c.want)
		}
	}
	if kept < 100 {
		t.Fatalf("the planted plans keep %d rows in all", kept)
	}
}

// FuzzDistinct: two columns of fuzzed cells — one as text, one as the
// numbers value.Parse reads from them with a decimal of fuzzed bits — on a
// table joined to a third column that repeats some of its rows. Every
// projection of the join, Distinct at Limit 0, 1, 2 and 10, with and
// without a tuple predicate, must return mem's rows in mem's spelling.
func FuzzDistinct(f *testing.F) {
	f.Add("Lake|LAKE|lake |lake||a|t:b|a", "3|3.0| 3|-0|0|nan|NaN", uint64(0x7ff8000000000001), uint8(3))
	f.Add("a|t:b|a|c|b|t:c", "1|2|1.0|x", uint64(1<<63), uint8(7))
	f.Add("|||", "||", uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, a, b string, bits uint64, stride uint8) {
		sch := schema.New()
		for _, tab := range []*schema.Table{
			schema.MustTable("F",
				schema.Column{Name: "A", Type: value.Text},
				schema.Column{Name: "B", Type: value.Decimal},
				schema.Column{Name: "J", Type: value.Int}),
			schema.MustTable("G", schema.Column{Name: "J", Type: value.Int}, schema.Column{Name: "C", Type: value.Text}),
		} {
			if err := sch.AddTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		db := mem.NewDatabase("fuzz", sch)
		var as, bs []value.Value
		for _, s := range strings.Split(a, "|") {
			if s == "" && len(as)%2 == 1 {
				as = append(as, value.NullValue)
				continue
			}
			as = append(as, value.NewText(s))
		}
		for _, s := range strings.Split(b, "|") {
			v, ok := value.Parse(s).Coerce(value.Decimal)
			if !ok {
				v = value.NullValue
			}
			bs = append(bs, v)
		}
		bs = append(bs, value.NewDecimal(math.Float64frombits(bits)))
		n := min(3*(len(as)+len(bs)), 120)
		for i := 0; i < n; i++ {
			row := value.Tuple{as[i%len(as)], bs[(i*(int(stride)+1))%len(bs)], value.NewInt(int64(i % 3))}
			if err := db.Insert("F", row); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range []string{"p", "q", "P", "r"} {
			if err := db.Insert("G", value.Tuple{value.NewInt(int64(i % 3)), value.NewText(c)}); err != nil {
				t.Fatal(err)
			}
		}
		db.Analyze()
		col := build(t, db)
		first := as[0]
		reject := func(tup value.Tuple) bool { return !sameCell(tup[0], first) }
		fa, fb, gc := ref("F", "A"), ref("F", "B"), ref("G", "C")
		for _, proj := range [][]schema.ColumnRef{{fa}, {fb}, {fa, fb}, {fb, fa}, {fa, gc}, {gc, fb, fa}} {
			plan := exec.Plan{
				Tables:  []string{"F", "G"},
				Joins:   []exec.JoinEdge{{Left: ref("F", "J"), Right: ref("G", "J")}},
				Project: proj,
			}
			for _, pred := range []func(value.Tuple) bool{nil, reject} {
				checkDistinct(t, fmt.Sprintf("%v predicate=%v", proj, pred != nil), col, db, plan, func() exec.ExecOptions { return exec.ExecOptions{TuplePredicate: pred} })
			}
		}
	})
}
