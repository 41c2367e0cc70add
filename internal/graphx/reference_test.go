package graphx_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"prism/internal/difftest"
	"prism/internal/graphx"
	"prism/internal/schema"
)

// This file keeps candidate enumeration as it was before the graph had a
// catalogue — every round rediscovering the schema's join trees from every
// seed and canonicalising them as text — as the oracle the catalogue-backed
// Enumerate must agree with, candidate for candidate, in order. It builds
// its trees as literals, so every Canonical it calls is rendered afresh.

func referenceConnectedTrees(g *graphx.Graph, seed string, maxTables int) []graphx.Tree {
	canonicalName := seed
	if tbl, ok := g.Schema().Table(seed); ok {
		canonicalName = tbl.Name
	}
	if maxTables < 1 {
		return nil
	}
	start := graphx.Tree{Tables: []string{canonicalName}}
	seen := map[string]struct{}{start.Canonical(): {}}
	out := []graphx.Tree{start}
	var expand func(t graphx.Tree)
	expand = func(t graphx.Tree) {
		if t.Size() >= maxTables {
			return
		}
		for _, table := range t.Tables {
			for _, fk := range g.Edges(table) {
				other := fk.To.Table
				if strings.EqualFold(fk.To.Table, table) {
					other = fk.From.Table
				}
				if t.Contains(other) {
					continue
				}
				next := graphx.Tree{
					Tables: append(append([]string(nil), t.Tables...), other),
					Edges:  append(append([]schema.ForeignKey(nil), t.Edges...), fk),
				}
				key := next.Canonical()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, next)
				expand(next)
			}
		}
	}
	expand(start)
	return out
}

func referenceEnumerate(g *graphx.Graph, related [][]schema.ColumnRef, opts graphx.EnumerateOptions) ([]graphx.Candidate, error) {
	if opts.MaxTables <= 0 {
		opts.MaxTables = 4
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 5000
	}
	if len(related) == 0 {
		return nil, fmt.Errorf("graphx: no target columns")
	}
	for i, cols := range related {
		if len(cols) == 0 {
			return nil, fmt.Errorf("graphx: target column %d has no related source columns", i+1)
		}
	}
	seedSet := make(map[string]string) // lower -> canonical
	for _, cols := range related {
		for _, ref := range cols {
			seedSet[strings.ToLower(ref.Table)] = ref.Table
		}
	}
	seeds := make([]string, 0, len(seedSet))
	for _, t := range seedSet {
		seeds = append(seeds, t)
	}
	sort.Strings(seeds)

	treeSeen := make(map[string]struct{})
	var trees []graphx.Tree
	for _, seed := range seeds {
		for _, t := range referenceConnectedTrees(g, seed, opts.MaxTables) {
			key := t.Canonical()
			if _, dup := treeSeen[key]; dup {
				continue
			}
			treeSeen[key] = struct{}{}
			trees = append(trees, t)
		}
	}
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Size() != trees[j].Size() {
			return trees[i].Size() < trees[j].Size()
		}
		return trees[i].Canonical() < trees[j].Canonical()
	})

	candSeen := make(map[string]struct{})
	var out []graphx.Candidate
	for _, tree := range trees {
		choices := make([][]schema.ColumnRef, len(related))
		feasible := true
		for i, cols := range related {
			for _, ref := range cols {
				if tree.Contains(ref.Table) {
					choices[i] = append(choices[i], ref)
				}
			}
			if len(choices[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		assignment := make([]schema.ColumnRef, len(related))
		var emit func(col int) bool
		emit = func(col int) bool {
			if len(out) >= opts.MaxCandidates {
				return false
			}
			if col == len(related) {
				cand := graphx.Candidate{Tree: tree, Projection: append([]schema.ColumnRef(nil), assignment...)}
				if opts.RequireUsefulLeaves && !referenceLeavesUseful(tree, cand.Projection) {
					return true
				}
				key := cand.Canonical()
				if _, dup := candSeen[key]; dup {
					return true
				}
				candSeen[key] = struct{}{}
				out = append(out, cand)
				return true
			}
			for _, ref := range choices[col] {
				assignment[col] = ref
				if !emit(col + 1) {
					return false
				}
			}
			return true
		}
		if !emit(0) {
			break
		}
	}
	return out, nil
}

func referenceLeavesUseful(tree graphx.Tree, projection []schema.ColumnRef) bool {
	if tree.Size() <= 1 {
		return true
	}
	used := make(map[string]bool)
	for _, ref := range projection {
		used[strings.ToLower(ref.Table)] = true
	}
	for _, leaf := range tree.Leaves() {
		if !used[strings.ToLower(leaf)] {
			return false
		}
	}
	return true
}

// sameCandidates requires got to be want element for element: tables and
// edges in the same order, the same projection, and the same signatures.
func sameCandidates(t *testing.T, name string, got, want []graphx.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d candidates, reference %d", name, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Tree.Tables, w.Tree.Tables) || !slices.Equal(g.Tree.Edges, w.Tree.Edges) ||
			!slices.Equal(g.Projection, w.Projection) {
			t.Errorf("%s candidate %d: %s, reference %s", name, i, g, w)
			return
		}
		if g.Canonical() != w.Canonical() || g.Tree.Canonical() != w.Tree.Canonical() {
			t.Errorf("%s candidate %d: signature %q over %q, reference %q over %q",
				name, i, g.Canonical(), g.Tree.Canonical(), w.Canonical(), w.Tree.Canonical())
			return
		}
	}
}

// TestEnumerateMatchesReference runs the generator pools of the three
// bundled databases through both enumerations, on one long-lived graph per
// database (so later rounds read a catalogue earlier ones filled) and under
// the option combinations rounds and experiments use.
func TestEnumerateMatchesReference(t *testing.T) {
	variants := []graphx.EnumerateOptions{
		{RequireUsefulLeaves: true},
		{MaxTables: 5, RequireUsefulLeaves: true},
		{MaxTables: 2},
		{MaxTables: 3, MaxCandidates: 7, RequireUsefulLeaves: true},
	}
	for name, db := range difftest.Databases(t) {
		g := graphx.New(db.Schema())
		candidates := 0
		for _, round := range difftest.Rounds(t, db, 3) {
			for _, opts := range variants {
				got, err := graphx.Enumerate(g, round.Related, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", name, round.Name, err)
				}
				want, err := referenceEnumerate(g, round.Related, opts)
				if err != nil {
					t.Fatalf("%s %s: reference: %v", name, round.Name, err)
				}
				sameCandidates(t, fmt.Sprintf("%s %s %+v", name, round.Name, opts), got, want)
				candidates += len(got)
			}
		}
		if candidates == 0 {
			t.Errorf("%s: no candidates compared", name)
		}
		for _, table := range db.Schema().TableNames() {
			for _, maxTables := range []int{0, 1, 3, 4} {
				got := g.ConnectedTrees(strings.ToUpper(table), maxTables)
				want := referenceConnectedTrees(g, strings.ToUpper(table), maxTables)
				if len(got) != len(want) {
					t.Fatalf("%s ConnectedTrees(%s, %d): %d trees, reference %d", name, table, maxTables, len(got), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i].Tables, want[i].Tables) || !slices.Equal(got[i].Edges, want[i].Edges) {
						t.Errorf("%s ConnectedTrees(%s, %d) tree %d: %s, reference %s", name, table, maxTables, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEnumerateOddInputsMatchReference covers what generator pools never
// produce: related columns repeated or spelled in another case, and tables
// the schema does not know.
func TestEnumerateOddInputsMatchReference(t *testing.T) {
	db := difftest.Databases(t)["mondial"]
	g := graphx.New(db.Schema())
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	cases := map[string][][]schema.ColumnRef{
		"repeated and recased": {
			{ref("geo_lake", "Province"), ref("GEO_LAKE", "province"), ref("Province", "Name"), ref("geo_lake", "Province")},
			{ref("Lake", "Name"), ref("lake", "Name"), ref("LAKE", "NAME")},
		},
		"recased seed sorts differently": {
			{ref("province", "Name"), ref("City", "Name")},
			{ref("country", "Code"), ref("Lake", "Area")},
		},
		"unknown tables": {
			{ref("Nowhere", "x"), ref("Lake", "Name"), ref("NOWHERE", "x")},
			{ref("Lake", "Area"), ref("Elsewhere", "y"), ref("nowhere", "z")},
		},
	}
	for name, related := range cases {
		for _, opts := range []graphx.EnumerateOptions{{}, {RequireUsefulLeaves: true}, {MaxCandidates: 3}} {
			got, err := graphx.Enumerate(g, related, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceEnumerate(g, related, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, fmt.Sprintf("%s %+v", name, opts), got, want)
		}
	}
}

// TestEnumerateConcurrentFirstUse fills a fresh graph's catalogue from eight
// goroutines at once, over overlapping seed sets, and requires every one of
// them to get what a lone caller gets: no order may depend on which
// goroutine built an entry first. Run under -race in CI.
func TestEnumerateConcurrentFirstUse(t *testing.T) {
	db := difftest.Databases(t)["mondial"]
	rounds := difftest.Rounds(t, db, 2)
	opts := graphx.EnumerateOptions{RequireUsefulLeaves: true}
	lone := graphx.New(db.Schema())
	want := make([][]graphx.Candidate, len(rounds))
	for i, round := range rounds {
		var err error
		if want[i], err = graphx.Enumerate(lone, round.Related, opts); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 3; rep++ {
		shared := graphx.New(db.Schema())
		got := make([][][]graphx.Candidate, 8)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = make([][]graphx.Candidate, len(rounds))
				// Each worker starts at its own offset, so different seeds
				// are first asked for by different goroutines.
				for k := range rounds {
					i := (k + w*3) % len(rounds)
					cands, err := graphx.Enumerate(shared, rounds[i].Related, opts)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][i] = cands
					// Subtree lists are built lazily too.
					for _, c := range cands {
						c.Tree.Subtrees()
					}
				}
			}()
		}
		wg.Wait()
		for w := range got {
			for i := range rounds {
				sameCandidates(t, fmt.Sprintf("worker %d %s", w, rounds[i].Name), got[w][i], want[i])
			}
		}
	}
}
