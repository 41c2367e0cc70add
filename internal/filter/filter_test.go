package filter

import (
	"context"
	"slices"
	"strings"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
	"prism/internal/workload"
)

// fixture builds the mini Mondial database, the §3 spec, and the enumerated
// candidates for it.
type fixture struct {
	db         *mem.Database
	spec       *constraint.Spec
	graph      *graphx.Graph
	candidates []graphx.Candidate
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	s := schema.New()
	add := func(tab *schema.Table) {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	add(schema.MustTable("Lake",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Area", Type: value.Decimal},
	))
	add(schema.MustTable("geo_lake",
		schema.Column{Name: "Lake", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
	))
	add(schema.MustTable("Province",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Country", Type: value.Text},
	))
	fk := func(ft, fc, tt, tc string) {
		if err := s.AddForeignKey(schema.ForeignKey{
			From: schema.ColumnRef{Table: ft, Column: fc},
			To:   schema.ColumnRef{Table: tt, Column: tc},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fk("geo_lake", "Lake", "Lake", "Name")
	fk("geo_lake", "Province", "Province", "Name")

	db := mem.NewDatabase("filter-test", s)
	data := []struct {
		table string
		cells []string
	}{
		{"Lake", []string{"Lake Tahoe", "497"}},
		{"Lake", []string{"Crater Lake", "53.2"}},
		{"Lake", []string{"Fort Peck Lake", "981"}},
		{"geo_lake", []string{"Lake Tahoe", "California"}},
		{"geo_lake", []string{"Lake Tahoe", "Nevada"}},
		{"geo_lake", []string{"Crater Lake", "Oregon"}},
		{"geo_lake", []string{"Fort Peck Lake", "Florida"}},
		{"Province", []string{"California", "United States"}},
		{"Province", []string{"Nevada", "United States"}},
		{"Province", []string{"Oregon", "United States"}},
		{"Province", []string{"Florida", "United States"}},
	}
	for _, r := range data {
		if err := db.InsertStrings(r.table, r.cells...); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()

	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}

	g := graphx.New(s)
	related := [][]schema.ColumnRef{
		{{Table: "geo_lake", Column: "Province"}, {Table: "Province", Column: "Name"}},
		{{Table: "Lake", Column: "Name"}, {Table: "geo_lake", Column: "Lake"}},
		{{Table: "Lake", Column: "Area"}},
	}
	cands, err := graphx.Enumerate(g, related, graphx.EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates enumerated")
	}
	return &fixture{db: db, spec: spec, graph: g, candidates: cands}
}

// decomposeFor is DecomposeFor under a live context.
func decomposeFor(t testing.TB, spec *constraint.Spec, candidates []graphx.Candidate) *Set {
	t.Helper()
	set, err := DecomposeFor(context.Background(), spec, candidates)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestDecomposeStructure(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	if set.NumCandidates() != len(fx.candidates) {
		t.Fatalf("NumCandidates = %d", set.NumCandidates())
	}
	if set.NumFilters() == 0 {
		t.Fatal("no filters")
	}
	// Every candidate has a top filter over its whole tree covering the two
	// constrained target columns, and not the third, which no sample
	// constrains.
	for ci, cand := range set.Candidates {
		top := set.Filters[set.Top[ci]]
		if top.Tree.Size() != cand.Tree.Size() || !slices.Equal(top.TargetCols, []int{0, 1}) ||
			!slices.Equal(top.Sources, cand.Projection[:2]) {
			t.Errorf("candidate %d: top filter %s does not cover candidate %s", ci, top, cand)
		}
		if len(set.CandidateFilters[ci]) == 0 {
			t.Errorf("candidate %d has no filters", ci)
		}
		// Each of its filters must be a sub-filter of the top filter.
		for _, fi := range set.CandidateFilters[ci] {
			if fi == set.Top[ci] {
				continue
			}
			if !isSubFilter(set.Filters[fi], top) {
				t.Errorf("candidate %d: %s is not a sub-filter of its top %s", ci, set.Filters[fi], top)
			}
		}
	}
	// Filters are shared: with more than one candidate there should be fewer
	// filters than the sum of per-candidate filter counts.
	sum := 0
	for _, fs := range set.CandidateFilters {
		sum += len(fs)
	}
	if len(fx.candidates) > 1 && set.NumFilters() >= sum {
		t.Errorf("filters do not appear to be shared: %d distinct vs %d total", set.NumFilters(), sum)
	}
	// Dependency relation is symmetric between parents and children.
	for i := range set.Filters {
		for _, p := range set.Parents(i) {
			found := false
			for _, c := range set.Children(p) {
				if c == i {
					found = true
				}
			}
			if !found {
				t.Errorf("parent/child asymmetry between %d and %d", i, p)
			}
		}
	}
}

func TestFilterPlanAndString(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	for _, f := range set.Filters {
		plan := f.Plan()
		if err := plan.Validate(fx.db.Schema()); err != nil {
			t.Errorf("filter %s plan invalid: %v", f, err)
		}
		if len(plan.Project) != len(f.TargetCols) {
			t.Errorf("filter %s projection mismatch", f)
		}
		if f.JoinPathLength() != len(f.Tree.Edges) {
			t.Errorf("JoinPathLength mismatch for %s", f)
		}
		if !strings.HasPrefix(f.String(), "filter[") {
			t.Errorf("String = %q", f.String())
		}
	}
}

func TestValidateSingleTableFilters(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}

	// Find a single-table filter over Lake binding target column 1 (the
	// "Lake Tahoe" cell) to Lake.Name; it must validate.
	var nameFilter *Filter
	for _, f := range set.Filters {
		if f.Tree.Size() != 1 || !f.Tree.Contains("Lake") {
			continue
		}
		for i, tc := range f.TargetCols {
			if tc == 1 && f.Sources[i].String() == "Lake.Name" {
				nameFilter = f
			}
		}
	}
	if nameFilter == nil {
		t.Fatal("expected a single-table Lake filter covering the lake-name cell")
	}
	res, err := v.Validate(nameFilter)
	if err != nil || !res.Passed {
		t.Errorf("Lake.Name filter should pass: %+v %v", res, err)
	}
	if res.Cost.RowsScanned == 0 {
		t.Error("validation should report scanned rows")
	}
	// A filter covering only the unconstrained area cell passes trivially.
	areaFilter := &Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake"}},
		TargetCols: []int{2},
		Sources:    []schema.ColumnRef{{Table: "Lake", Column: "Area"}},
	}
	res, err = v.Validate(areaFilter)
	if err != nil || !res.Passed {
		t.Errorf("Lake.Area filter (unconstrained cell) should pass: %+v %v", res, err)
	}
}

func TestValidateFailingFilter(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}
	// The filter binding target column 1 (California || Nevada) to
	// Province.Name trivially passes; the one binding target column 2
	// (Lake Tahoe) to geo_lake.Province must fail.
	var wrongBinding *Filter
	for _, f := range set.Filters {
		if f.Tree.Size() == 1 && len(f.TargetCols) == 1 &&
			f.TargetCols[0] == 1 && f.Sources[0].String() == "geo_lake.Lake" {
			// geo_lake.Lake does contain "Lake Tahoe", so that passes; look
			// instead for column 0 bound to Lake.Name-like columns.
			continue
		}
	}
	// Construct a filter directly: target column 0 (California || Nevada)
	// bound to Lake.Name — no lake is named California or Nevada.
	wrongBinding = &Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake"}},
		TargetCols: []int{0},
		Sources:    []schema.ColumnRef{{Table: "Lake", Column: "Name"}},
	}
	res, err := v.Validate(wrongBinding)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Error("binding the province constraint to Lake.Name must fail")
	}
}

func TestValidateFullCandidates(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}
	confirmed := 0
	desiredConfirmed := false
	for ci, cand := range set.Candidates {
		top := set.Filters[set.Top[ci]]
		res, err := v.Validate(top)
		if err != nil {
			t.Fatalf("validate top of candidate %d: %v", ci, err)
		}
		if res.Passed {
			confirmed++
			p := cand.Projection
			if p[0].String() == "geo_lake.Province" && p[1].String() == "Lake.Name" && p[2].String() == "Lake.Area" && cand.Tree.Size() == 2 {
				desiredConfirmed = true
			}
		}
	}
	if confirmed == 0 {
		t.Error("at least the paper's desired mapping should validate")
	}
	if !desiredConfirmed {
		t.Error("the paper's desired mapping (geo_lake.Province, Lake.Name, Lake.Area) must validate")
	}
}

func TestValidateMultipleSamples(t *testing.T) {
	fx := newFixture(t)
	spec, err := constraint.ParseGrid(2,
		[][]string{
			{"California || Nevada", "Lake Tahoe"},
			{"Oregon", "Crater Lake"},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	v := &Validator{DB: fx.db, Cells: NewCells(spec)}
	good := &Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake", "geo_lake"}, Edges: []schema.ForeignKey{fx.db.Schema().ForeignKeys()[0]}},
		TargetCols: []int{0, 1},
		Sources: []schema.ColumnRef{
			{Table: "geo_lake", Column: "Province"},
			{Table: "Lake", Column: "Name"},
		},
	}
	res, err := v.Validate(good)
	if err != nil || !res.Passed {
		t.Errorf("both samples should be satisfiable: %+v %v", res, err)
	}
	// Now add a sample that cannot be satisfied.
	spec2, err := constraint.ParseGrid(2,
		[][]string{
			{"California", "Lake Tahoe"},
			{"Texas", "Lake Tahoe"},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	v2 := &Validator{DB: fx.db, Cells: NewCells(spec2)}
	res, err = v2.Validate(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Error("a sample naming Texas must fail on this database")
	}
}

func TestValidateErrorPropagation(t *testing.T) {
	fx := newFixture(t)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}
	bad := &Filter{
		Tree:       graphx.Tree{Tables: []string{"NoSuchTable"}},
		TargetCols: []int{0},
		Sources:    []schema.ColumnRef{{Table: "NoSuchTable", Column: "X"}},
	}
	if _, err := v.Validate(bad); err == nil {
		t.Error("validating a filter over an unknown table should fail")
	}
}

func TestSessionPropagation(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	sess := NewSession(set)
	if sess.UnresolvedCandidates() != set.NumCandidates() {
		t.Fatal("all candidates start unresolved")
	}

	// Failing a shared single-table filter must prune every candidate that
	// contains it and imply failure of its parents.
	var sharedIdx int = -1
	best := -1
	for i := range set.Filters {
		if n := len(set.CandidatesOf(i)); n > best && set.Filters[i].Tree.Size() == 1 {
			best = n
			sharedIdx = i
		}
	}
	if sharedIdx < 0 {
		t.Fatal("no single-table filter found")
	}
	reachBefore := sess.PruningReach(sharedIdx)
	if reachBefore != best {
		t.Errorf("PruningReach = %d, want %d", reachBefore, best)
	}
	sess.RecordExecution(sharedIdx, ValidationResult{Passed: false})
	if sess.Executed != 1 {
		t.Errorf("Executed = %d", sess.Executed)
	}
	if sess.Outcomes[sharedIdx] != Failed {
		t.Error("filter should be failed")
	}
	for _, p := range set.Parents(sharedIdx) {
		if sess.Outcomes[p] != Failed {
			t.Errorf("parent %d should be implied failed", p)
		}
	}
	prunedCount := len(sess.Pruned())
	if prunedCount != best {
		t.Errorf("pruned %d candidates, want %d", prunedCount, best)
	}
	if sess.Implied == 0 {
		t.Error("implication counter should have increased")
	}

	// Passing a top filter confirms its candidate and implies its children.
	var unresolvedCand int = -1
	for ci := range set.Candidates {
		if sess.Status[ci] == CandidateUnresolved {
			unresolvedCand = ci
			break
		}
	}
	if unresolvedCand < 0 {
		t.Skip("all candidates already resolved by the shared failure")
	}
	top := set.Top[unresolvedCand]
	sess.RecordExecution(top, ValidationResult{Passed: true})
	if sess.Status[unresolvedCand] != CandidateConfirmed {
		t.Error("candidate should be confirmed after its top filter passes")
	}
	for _, c := range set.Children(top) {
		if sess.Outcomes[c] == Unknown {
			t.Error("children of a passing filter should be implied passed")
		}
	}
	if got := len(sess.Confirmed()); got != 1 {
		t.Errorf("Confirmed = %d", got)
	}
	// Re-applying a determined outcome is a no-op.
	before := sess.Implied
	sess.apply(top, Failed)
	if sess.Outcomes[top] != Passed || sess.Implied != before {
		t.Error("conflicting re-application should be ignored")
	}
}

func TestSessionDeterminedAndStatusStrings(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	sess := NewSession(set)
	if sess.Determined(0) {
		t.Error("filters start undetermined")
	}
	sess.RecordExecution(0, ValidationResult{Passed: true})
	if !sess.Determined(0) {
		t.Error("filter 0 should be determined")
	}
	for _, o := range []Outcome{Unknown, Passed, Failed, Outcome(9)} {
		if o.String() == "" {
			t.Error("outcome string empty")
		}
	}
	for _, s := range []CandidateStatus{CandidateUnresolved, CandidateConfirmed, CandidatePruned, CandidateStatus(9)} {
		if s.String() == "" {
			t.Error("status string empty")
		}
	}
}

func TestValidateEmptySampleSpec(t *testing.T) {
	fx := newFixture(t)
	spec, err := constraint.ParseGrid(1, nil, []string{"DataType == 'decimal'"})
	if err != nil {
		t.Fatal(err)
	}
	v := &Validator{DB: fx.db, Cells: NewCells(spec)}
	f := &Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake"}},
		TargetCols: []int{0},
		Sources:    []schema.ColumnRef{{Table: "Lake", Column: "Area"}},
	}
	res, err := v.Validate(f)
	if err != nil || !res.Passed {
		t.Errorf("metadata-only spec: non-empty projection should pass, got %+v %v", res, err)
	}
}

// lowResRound enumerates the widest round of the low-resolution recipe —
// metadata on every column, no sample value — over a Mondial of ten
// thousand rows: about a thousand candidates.
func lowResRound(t testing.TB) (*constraint.Spec, []graphx.Candidate) {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{Seed: 1, Countries: 20, ProvincesPerCountry: 8, CitiesPerProvince: 8,
		Lakes: 1500, Rivers: 1000, Mountains: 800})
	if err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	gen, err := workload.NewGenerator(db, 1, workload.MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	cases, err := gen.Generate(workload.LevelMetadata, 5, workload.Config{SamplesPerCase: 1, LoosenFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graphx.New(db.Schema())
	var (
		spec   *constraint.Spec
		widest []graphx.Candidate
	)
	for _, tc := range cases {
		related, ok := difftest.Related(db, tc.Spec)
		if !ok {
			continue
		}
		cands, err := graphx.Enumerate(g, related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) > len(widest) {
			spec, widest = tc.Spec, cands
		}
	}
	if len(widest) < 500 {
		t.Fatalf("widest low-resolution round has %d candidates", len(widest))
	}
	return spec, widest
}

// BenchmarkDecomposeLowRes measures the decomposition of a low-resolution
// round under its specification, as a round decomposes it.
func BenchmarkDecomposeLowRes(b *testing.B) {
	spec, candidates := lowResRound(b)
	b.ReportAllocs()
	var set *Set
	for b.Loop() {
		set = decomposeFor(b, spec, candidates)
	}
	b.ReportMetric(float64(len(candidates)), "candidates")
	b.ReportMetric(float64(set.NumFilters()), "filters")
}

func BenchmarkValidateTopFilter(b *testing.B) {
	fx := newFixture(b)
	set := decomposeFor(b, fx.spec, fx.candidates)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}
	top := set.Filters[set.Top[0]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(top); err != nil {
			b.Fatal(err)
		}
	}
}
