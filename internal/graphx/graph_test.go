package graphx

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prism/internal/schema"
	"prism/internal/value"
)

// mondialMiniSchema builds the Lake / geo_lake / Province / Country chain
// plus a City table hanging off Province, giving the graph a branch.
func mondialMiniSchema(t testing.TB) *schema.Schema {
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
	add(schema.MustTable("Country",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Code", Type: value.Text},
	))
	add(schema.MustTable("City",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
		schema.Column{Name: "Population", Type: value.Int},
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
	fk("Province", "Country", "Country", "Name")
	fk("City", "Province", "Province", "Name")
	return s
}

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

func TestNeighborsAndEdges(t *testing.T) {
	g := New(mondialMiniSchema(t))
	if got := g.Edges("Province"); len(got) != 3 {
		t.Errorf("Edges(Province) = %v", got)
	}
	if got := g.Edges("Lake"); len(got) != 1 || got[0].From.Table != "geo_lake" {
		t.Errorf("Edges(Lake) = %v", got)
	}
	if got := g.Edges("Unknown"); got != nil {
		t.Errorf("Edges(Unknown) = %v", got)
	}
	if len(g.Edges("geo_lake")) != 2 {
		t.Errorf("Edges(geo_lake) = %v", g.Edges("geo_lake"))
	}
	if g.Schema() == nil {
		t.Error("Schema accessor")
	}
}

func TestConnectedTrees(t *testing.T) {
	g := New(mondialMiniSchema(t))
	trees := g.ConnectedTrees("Lake", 1)
	if len(trees) != 1 || trees[0].Size() != 1 {
		t.Fatalf("maxTables=1 should yield only the seed tree: %v", trees)
	}
	trees = g.ConnectedTrees("Lake", 2)
	if len(trees) != 2 {
		t.Fatalf("maxTables=2 trees = %v", trees)
	}
	trees = g.ConnectedTrees("Lake", 5)
	// Trees containing Lake: {L}, {L,g}, {L,g,P}, {L,g,P,C}, {L,g,P,City},
	// {L,g,P,C,City} => 6.
	if len(trees) != 6 {
		t.Fatalf("maxTables=5 trees = %d: %v", len(trees), trees)
	}
	// All trees contain the seed, are acyclic and connected (edges = tables-1).
	for _, tr := range trees {
		if !tr.Contains("Lake") {
			t.Errorf("tree %v missing seed", tr)
		}
		if len(tr.Edges) != tr.Size()-1 {
			t.Errorf("tree %v is not a tree", tr)
		}
	}
	if got := g.ConnectedTrees("Lake", 0); got != nil {
		t.Error("maxTables=0 should yield nothing")
	}
	// Seed casing is canonicalised.
	trees = g.ConnectedTrees("lake", 1)
	if trees[0].Tables[0] != "Lake" {
		t.Errorf("seed should canonicalise to declared casing: %v", trees[0].Tables)
	}
}

func TestTreeHelpers(t *testing.T) {
	g := New(mondialMiniSchema(t))
	var threeTable Tree
	for _, tr := range g.ConnectedTrees("Lake", 3) {
		if tr.Size() == 3 {
			threeTable = tr
		}
	}
	if threeTable.Size() != 3 {
		t.Fatal("expected a 3-table tree")
	}
	single := Tree{Tables: []string{"Lake"}}
	if single.Canonical() != "lake" {
		t.Errorf("single canonical = %q", single.Canonical())
	}
	if (Tree{}).Canonical() != "" {
		t.Error("empty tree canonical should be empty")
	}
	if single.String() != "Lake" {
		t.Errorf("single String = %q", single.String())
	}
	if !strings.Contains(threeTable.String(), "->") {
		t.Errorf("tree String = %q", threeTable.String())
	}
	// Canonical is order-insensitive over edges.
	rev := Tree{Tables: threeTable.Tables, Edges: []schema.ForeignKey{threeTable.Edges[1], threeTable.Edges[0]}}
	if rev.Canonical() != threeTable.Canonical() {
		t.Error("canonical should not depend on edge order")
	}
}

func TestSubtrees(t *testing.T) {
	g := New(mondialMiniSchema(t))
	var chain Tree
	for _, tr := range g.ConnectedTrees("Lake", 3) {
		if tr.Size() == 3 {
			chain = tr
		}
	}
	// Grown from each table in Tables order (Lake, geo_lake, Province),
	// first discovery wins.
	want := []string{
		"lake",
		"geo_lake.lake=lake.name",
		"geo_lake.lake=lake.name;geo_lake.province=province.name",
		"geo_lake",
		"geo_lake.province=province.name",
		"province",
	}
	subs := chain.Subtrees()
	if len(subs) != len(want) {
		t.Fatalf("%d subtrees of %s, want %d", len(subs), chain, len(want))
	}
	for i, sub := range subs {
		if got := chain.Subtree(sub).Canonical(); got != want[i] {
			t.Errorf("subtree %d = %q, want %q", i, got, want[i])
		}
	}
	// Every subtree of every tree materialises to a tree of its size, with
	// its tables and edges at the positions it lists, and exactly once.
	for _, tr := range g.ConnectedTrees("Province", 5) {
		seen := make(map[string]bool)
		whole := 0
		for _, sub := range tr.Subtrees() {
			tree := tr.Subtree(sub)
			sig := tree.Canonical()
			if tree.Size() != sub.Size() || len(tree.Edges) != sub.Size()-1 || len(sub.Edges()) != len(tree.Edges) {
				t.Errorf("%s: subtree %q of %d tables materialises as %s", tr, sig, sub.Size(), tree)
			}
			for i, p := range sub.Tables() {
				if tree.Tables[i] != tr.Tables[p] {
					t.Errorf("%s: subtree %q lists table %d at position %d, which is %s", tr, sig, i, p, tr.Tables[p])
				}
			}
			for i, e := range sub.Edges() {
				if tree.Edges[i] != tr.Edges[e] {
					t.Errorf("%s: subtree %q lists edge %d at position %d, which is %s", tr, sig, i, e, tr.Edges[e])
				}
			}
			if seen[sig] {
				t.Errorf("%s: subtree %q listed twice", tr, sig)
			}
			seen[sig] = true
			if sub.Size() == tr.Size() {
				whole++
			}
		}
		if whole != 1 {
			t.Errorf("%s: the tree itself is listed %d times among its subtrees", tr, whole)
		}
	}
	// A hand-built tree works the same; an edge leaving its tables is ignored.
	stray := Tree{Tables: []string{"Lake"}, Edges: chain.Edges[:1]}
	if subs := stray.Subtrees(); len(subs) != 1 || stray.Subtree(subs[0]).Canonical() != "lake" {
		t.Errorf("subtrees of a tree with a stray edge: %v", subs)
	}
	if subs := (Tree{}).Subtrees(); len(subs) != 0 {
		t.Errorf("the empty tree has subtrees: %v", subs)
	}
}

func TestEnumeratedCandidatesKeepTheirSignature(t *testing.T) {
	g := New(mondialMiniSchema(t))
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province"), ref("Province", "Name")},
		{ref("Lake", "Name")},
	}
	cands, err := Enumerate(g, related, EnumerateOptions{RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		literal := Candidate{Tree: c.Tree, Projection: c.Projection}
		if c.Canonical() != literal.Canonical() {
			t.Errorf("kept signature %q, rendered %q", c.Canonical(), literal.Canonical())
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, c := range cands {
			_ = c.Canonical()
		}
	}); allocs != 0 {
		t.Errorf("Canonical on enumerated candidates allocated %v times, want 0", allocs)
	}
}

func TestCandidatePlanAndString(t *testing.T) {
	g := New(mondialMiniSchema(t))
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province")},
		{ref("Lake", "Name")},
		{ref("Lake", "Area")},
	}
	cands, err := Enumerate(g, related, EnumerateOptions{RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	first := cands[0]
	plan := first.Plan()
	if err := plan.Validate(g.Schema()); err != nil {
		t.Errorf("candidate plan invalid: %v", err)
	}
	if len(plan.Project) != 3 {
		t.Errorf("plan projection = %v", plan.Project)
	}
	if !strings.Contains(first.String(), "Lake.Name") {
		t.Errorf("candidate String = %q", first.String())
	}
	if first.Canonical() == "" {
		t.Error("canonical should not be empty")
	}
}

// TestProjectionSignature: an enumerated candidate's projection signature
// is what follows its tree's Canonical in its own Canonical, and a literal
// copy of it, which keeps no signature, renders the same.
func TestProjectionSignature(t *testing.T) {
	g := New(mondialMiniSchema(t))
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province"), ref("Province", "Name")},
		{ref("Lake", "Name"), ref("geo_lake", "Lake")},
		{ref("Lake", "Area")},
	}
	cands, err := Enumerate(g, related, EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: true})
	if err != nil || len(cands) == 0 {
		t.Fatalf("%d candidates, error %v", len(cands), err)
	}
	for _, c := range cands {
		literal := Candidate{Tree: c.Tree, Projection: c.Projection}
		want := strings.TrimPrefix(c.Canonical(), c.Tree.Canonical())
		if got := c.ProjectionSignature(); got != want || !strings.HasPrefix(got, "#") || literal.ProjectionSignature() != want {
			t.Errorf("%s: projection signature %q, literal %q; want %q", c.Canonical(), got, literal.ProjectionSignature(), want)
		}
	}
}

func TestEnumerateLakeExample(t *testing.T) {
	g := New(mondialMiniSchema(t))
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province"), ref("Province", "Name")},
		{ref("Lake", "Name"), ref("geo_lake", "Lake")},
		{ref("Lake", "Area")},
	}
	cands, err := Enumerate(g, related, EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("expected candidates")
	}
	// The paper's desired query must be among them: tree {Lake, geo_lake},
	// projection geo_lake.Province, Lake.Name, Lake.Area.
	found := false
	for _, c := range cands {
		if c.Tree.Size() != 2 {
			continue
		}
		p := c.Projection
		if strings.EqualFold(p[0].String(), "geo_lake.Province") &&
			strings.EqualFold(p[1].String(), "Lake.Name") &&
			strings.EqualFold(p[2].String(), "Lake.Area") {
			found = true
		}
	}
	if !found {
		t.Errorf("desired candidate not enumerated; got %d candidates", len(cands))
	}
	// No duplicate canonical signatures.
	seen := make(map[string]bool)
	for _, c := range cands {
		if seen[c.Canonical()] {
			t.Errorf("duplicate candidate %s", c)
		}
		seen[c.Canonical()] = true
	}
	// Candidates are ordered smaller trees first.
	for i := 1; i < len(cands); i++ {
		if cands[i].Tree.Size() < cands[i-1].Tree.Size() {
			t.Error("candidates not ordered by tree size")
			break
		}
	}
}

func TestEnumerateUsefulLeafPruning(t *testing.T) {
	g := New(mondialMiniSchema(t))
	related := [][]schema.ColumnRef{
		{ref("Lake", "Name")},
		{ref("Lake", "Area")},
	}
	all, err := Enumerate(g, related, EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: false})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Enumerate(g, related, EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 {
		t.Errorf("with useful-leaf pruning only the single-table candidate should remain, got %d", len(pruned))
	}
	if len(all) <= len(pruned) {
		t.Errorf("unpruned enumeration should be larger: %d vs %d", len(all), len(pruned))
	}
	for _, c := range pruned {
		if c.Tree.Size() != 1 {
			t.Errorf("unexpected multi-table candidate %s", c)
		}
	}
}

func TestEnumerateErrorsAndCaps(t *testing.T) {
	g := New(mondialMiniSchema(t))
	if _, err := Enumerate(g, nil, EnumerateOptions{}); err == nil {
		t.Error("no target columns should fail")
	}
	if _, err := Enumerate(g, [][]schema.ColumnRef{{}}, EnumerateOptions{}); err == nil {
		t.Error("target column without related columns should fail")
	}
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province"), ref("Province", "Name"), ref("City", "Province")},
		{ref("Lake", "Name"), ref("geo_lake", "Lake"), ref("City", "Name"), ref("Country", "Name")},
		{ref("Lake", "Area"), ref("City", "Population")},
	}
	capped, err := Enumerate(g, related, EnumerateOptions{MaxTables: 4, MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Errorf("MaxCandidates cap not respected: %d", len(capped))
	}
	uncapped, err := Enumerate(g, related, EnumerateOptions{MaxTables: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(uncapped) <= 3 {
		t.Errorf("expected more candidates without cap, got %d", len(uncapped))
	}
	// A context whose budget is already gone: the error is the context's and
	// not one candidate has been built.
	budget := errors.New("time budget exhausted")
	ctx, cancel := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Second), budget)
	defer cancel()
	expired, err := EnumerateContext(ctx, g, related, EnumerateOptions{MaxTables: 4})
	if !errors.Is(err, context.DeadlineExceeded) || len(expired) != 0 {
		t.Errorf("expired context: %d candidates, err %v; want none and the context's error", len(expired), err)
	}
}

func TestEnumerateDisconnectedRelatedColumns(t *testing.T) {
	// Add an island table with no foreign keys; related columns there can
	// only be served by single-table candidates.
	s := mondialMiniSchema(t)
	if err := s.AddTable(schema.MustTable("Island", schema.Column{Name: "Name", Type: value.Text})); err != nil {
		t.Fatal(err)
	}
	g := New(s)
	related := [][]schema.ColumnRef{
		{ref("Island", "Name"), ref("Lake", "Name")},
		{ref("Lake", "Area")},
	}
	cands, err := Enumerate(g, related, EnumerateOptions{MaxTables: 3, RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Tree.Contains("Island") && c.Tree.Size() > 1 {
			t.Errorf("island cannot join with other tables: %s", c)
		}
	}
	if len(cands) == 0 {
		t.Error("the Lake-only candidate should still exist")
	}
}

func BenchmarkConnectedTrees(b *testing.B) {
	g := New(mondialMiniSchema(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := g.ConnectedTrees("Lake", 5); len(got) == 0 {
			b.Fatal("no trees")
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	g := New(mondialMiniSchema(b))
	related := [][]schema.ColumnRef{
		{ref("geo_lake", "Province"), ref("Province", "Name")},
		{ref("Lake", "Name"), ref("geo_lake", "Lake")},
		{ref("Lake", "Area")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(g, related, EnumerateOptions{MaxTables: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
