package graphx

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"prism/internal/constraint"
	"prism/internal/difftest"
	"prism/internal/mem"
	"prism/internal/schema"
)

// This file keeps candidate enumeration as it was before the candidate
// stage folded per-round and per-tree facts once: every assignment copied
// into a projection, its leaf tables checked through a map of lower-cased
// table names and rendered through Candidate.Canonical. It is the oracle the
// enumeration must agree with, candidate for candidate.

// referenceEnumerate produces candidate schema mapping queries from the
// per-target-column sets of related source columns. related[i] lists the
// feasible source columns for target column i; every target column must have
// at least one. It polls ctx once per seed table and once per join tree and
// returns ctx.Err() with no candidates when the context has died.
func referenceEnumerate(ctx context.Context, g *Graph, related [][]schema.ColumnRef, opts EnumerateOptions) ([]Candidate, error) {
	opts = opts.withDefaults()
	if len(related) == 0 {
		return nil, fmt.Errorf("graphx: no target columns")
	}
	for i, cols := range related {
		if len(cols) == 0 {
			return nil, fmt.Errorf("graphx: target column %d has no related source columns", i+1)
		}
	}

	// Seed tables: every table hosting at least one related column.
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

	// Enumerate candidate trees from every seed, deduplicated.
	treeSeen := make(map[string]struct{})
	var trees []Tree
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, t := range g.ConnectedTrees(seed, opts.MaxTables) {
			key := t.Canonical()
			if _, dup := treeSeen[key]; dup {
				continue
			}
			treeSeen[key] = struct{}{}
			trees = append(trees, t)
		}
	}
	// Deterministic order: smaller trees first (cheaper candidates are
	// preferred and validated earlier), then by signature.
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Size() != trees[j].Size() {
			return trees[i].Size() < trees[j].Size()
		}
		return trees[i].Canonical() < trees[j].Canonical()
	})

	candSeen := make(map[string]struct{})
	var out []Candidate
	for _, tree := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Related columns available inside this tree, per target column.
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
		// Cartesian product of per-column choices.
		assignment := make([]schema.ColumnRef, len(related))
		var emit func(col int) bool
		emit = func(col int) bool {
			if len(out) >= opts.MaxCandidates {
				return false
			}
			if col == len(related) {
				cand := Candidate{Tree: tree, Projection: append([]schema.ColumnRef(nil), assignment...)}
				if opts.RequireUsefulLeaves && !referenceLeavesUseful(tree, cand.Projection) {
					return true
				}
				cand.sig = cand.Canonical()
				if _, dup := candSeen[cand.sig]; dup {
					return true
				}
				candSeen[cand.sig] = struct{}{}
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

// referenceLeavesUseful reports whether every leaf table of the tree hosts at least
// one projected column.
func referenceLeavesUseful(tree Tree, projection []schema.ColumnRef) bool {
	if tree.Size() <= 1 {
		return true
	}
	used := make(map[string]bool)
	for _, ref := range projection {
		used[strings.ToLower(ref.Table)] = true
	}
	degree := make(map[string]int)
	for _, e := range tree.Edges {
		degree[strings.ToLower(e.From.Table)]++
		degree[strings.ToLower(e.To.Table)]++
	}
	for _, tb := range tree.Tables {
		if degree[strings.ToLower(tb)] <= 1 && !used[strings.ToLower(tb)] {
			return false
		}
	}
	return true
}

// enumerationCase is one input of candidate enumeration.
type enumerationCase struct {
	name    string
	graph   *Graph
	related [][]schema.ColumnRef
}

// metadataRelated relates every column of a database that a metadata-only
// specification can reach, one metadata expression per target column.
func metadataRelated(t testing.TB, db *mem.Database, metadata ...string) ([][]schema.ColumnRef, bool) {
	t.Helper()
	spec, err := constraint.ParseGrid(len(metadata), nil, metadata)
	if err != nil {
		t.Fatal(err)
	}
	return difftest.Related(db, spec)
}

// metadataOnly lists the metadata-only specifications enumeration is
// compared on: every column of the named type is related.
var metadataOnly = [][]string{
	{"DataType=='text'", "DataType=='decimal'"},
	{"DataType=='text'", "DataType=='int'"},
	{"DataType=='text'", "DataType=='text'", "DataType=='decimal'"},
}

// respell spells the tables of related columns in three ways, the schema's,
// upper case and lower case, so one table reaches enumeration under several
// spellings.
func respell(related [][]schema.ColumnRef) [][]schema.ColumnRef {
	out := make([][]schema.ColumnRef, len(related))
	for c, cols := range related {
		for k, ref := range cols {
			switch (c + k) % 3 {
			case 1:
				ref.Table = strings.ToUpper(ref.Table)
			case 2:
				ref.Table = strings.ToLower(ref.Table)
			}
			out[c] = append(out[c], ref)
		}
	}
	return out
}

// enumerationCases builds the inputs of the differential test over the
// bundled databases: the generator pool, the pool with tables respelled, and
// metadata-only related sets.
func enumerationCases(t *testing.T) []enumerationCase {
	var cases []enumerationCase
	for name, db := range difftest.Databases(t) {
		g := New(db.Schema())
		for _, round := range difftest.Rounds(t, db, 2) {
			cases = append(cases,
				enumerationCase{name + " " + round.Name, g, round.Related},
				enumerationCase{name + " " + round.Name + " respelled", g, respell(round.Related)})
		}
		for _, metadata := range metadataOnly {
			if related, ok := metadataRelated(t, db, metadata...); ok {
				cases = append(cases, enumerationCase{name + " " + strings.Join(metadata, " | "), g, related})
			}
		}
	}
	return cases
}

// TestEnumerateMatchesReference requires the enumeration to produce the
// reference's candidates, field for field and in the reference's order,
// under every combination of useful-leaf pruning, tree size and truncation.
func TestEnumerateMatchesReference(t *testing.T) {
	compared := 0
	for _, tc := range enumerationCases(t) {
		for _, useful := range []bool{true, false} {
			for maxTables := 1; maxTables <= 5; maxTables++ {
				for _, maxCandidates := range []int{1, 7, 100, 0} {
					if maxCandidates == 0 && maxTables != 4 {
						continue // untruncated: the default tree size only
					}
					opts := EnumerateOptions{MaxTables: maxTables, MaxCandidates: maxCandidates, RequireUsefulLeaves: useful}
					label := fmt.Sprintf("%s %+v", tc.name, opts)
					want, err := referenceEnumerate(context.Background(), tc.graph, tc.related, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Enumerate(tc.graph, tc.related, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, label, got, want)
					compared += len(want)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no candidates compared")
	}
	t.Logf("%d candidates compared", compared)
}

func sameCandidates(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		literal := Candidate{Tree: g.Tree, Projection: g.Projection}
		if !slices.Equal(g.Tree.Tables, w.Tree.Tables) || !slices.Equal(g.Tree.Edges, w.Tree.Edges) ||
			!slices.Equal(g.Projection, w.Projection) || g.Canonical() != w.Canonical() ||
			literal.Canonical() != g.Canonical() {
			t.Fatalf("%s: candidate %d is %s (%q), reference %s (%q)", label, i, g, g.Canonical(), w, w.Canonical())
		}
	}
}

// BenchmarkEnumerateLowRes enumerates the metadata-only related sets over
// the demo Mondial (about two thousand candidates per operation): the
// candidate stage dominates, as on a low-resolution round.
func BenchmarkEnumerateLowRes(b *testing.B) {
	db := difftest.Databases(b)["mondial"]
	g := New(db.Schema())
	var sets [][][]schema.ColumnRef
	for _, metadata := range metadataOnly {
		related, ok := metadataRelated(b, db, metadata...)
		if !ok {
			b.Fatalf("%v relates no column", metadata)
		}
		sets = append(sets, related)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, related := range sets {
			if _, err := Enumerate(g, related, EnumerateOptions{RequireUsefulLeaves: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// referenceEdgeSignature is the edge text the oracle signatures were built
// from, verbatim: the foreign key's two ends lower-cased, ordered and
// joined by "=".
func referenceEdgeSignature(e schema.ForeignKey) string {
	a, b := strings.ToLower(e.From.String()), strings.ToLower(e.To.String())
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
}

// referenceSubtrees is Tree.Subtrees as it was before subtrees were told
// apart by position: each one's signature rendered from its sorted edge
// signatures and deduplicated through a string map. It returns the
// signatures alongside, the one thing the old Subtree carried besides its
// positions.
func referenceSubtrees(t Tree) ([]Subtree, []string) {
	lower := make([]string, len(t.Tables))
	for p, name := range t.Tables {
		lower[p] = strings.ToLower(name)
	}
	// ends[e] holds the positions of edge e's endpoints, keys[e] its
	// canonical text.
	ends := make([][2]int32, len(t.Edges))
	keys := make([]string, len(t.Edges))
	for e, fk := range t.Edges {
		ends[e] = [2]int32{tablePosition(t.Tables, fk.From.Table), tablePosition(t.Tables, fk.To.Table)}
		keys[e] = referenceEdgeSignature(fk)
	}

	var (
		out    []Subtree
		sigs   []string
		seen   = make(map[string]struct{})
		tables []int32
		edges  []int32
		in     = make([]bool, len(t.Tables))
	)
	signature := func() string {
		if len(edges) == 0 {
			return lower[tables[0]]
		}
		parts := make([]string, len(edges))
		for i, e := range edges {
			parts[i] = keys[e]
		}
		slices.Sort(parts)
		return strings.Join(parts, ";")
	}
	// record adds the subtree on the stacks unless its signature was seen.
	record := func() bool {
		sig := signature()
		if _, dup := seen[sig]; dup {
			return false
		}
		seen[sig] = struct{}{}
		order := make([]int32, 0, len(tables)+len(edges))
		order = append(append(order, tables...), edges...)
		out = append(out, Subtree{order: order})
		sigs = append(sigs, sig)
		return true
	}
	var expand func()
	expand = func() {
		// The subtree at this level is tables[:n]; deeper levels push and
		// pop beyond n.
		n := len(tables)
		for _, p := range tables[:n] {
			for e := range t.Edges {
				var other int32
				switch p {
				case ends[e][0]:
					other = ends[e][1]
				case ends[e][1]:
					other = ends[e][0]
				default:
					continue
				}
				if other < 0 || in[other] {
					continue
				}
				tables, edges, in[other] = append(tables, other), append(edges, int32(e)), true
				if record() {
					expand()
				}
				tables, edges, in[other] = tables[:n], edges[:len(edges)-1], false
			}
		}
	}
	for p := range t.Tables {
		tables, in[p] = append(tables[:0], int32(p)), true
		record()
		expand()
		in[p] = false
	}
	return out, sigs
}

// TestSubtreesMatchReference requires Tree.Subtrees to list the subtrees
// the signature-deduplicating reference lists, in the same order, for every
// connected tree of up to five tables around every table of the bundled
// schemas, and each one's materialised signature to be the reference's.
func TestSubtreesMatchReference(t *testing.T) {
	trees, subtrees := 0, 0
	for name, db := range difftest.Databases(t) {
		g := New(db.Schema())
		for _, table := range db.Schema().Tables() {
			for _, tr := range g.ConnectedTrees(table.Name, 5) {
				got := tr.Subtrees()
				want, sigs := referenceSubtrees(tr)
				if len(got) != len(want) {
					t.Fatalf("%s: %s has %d subtrees, reference %d", name, tr, len(got), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i].order, want[i].order) {
						t.Fatalf("%s: %s subtree %d is %v, reference %v (%q)", name, tr, i, got[i].order, want[i].order, sigs[i])
					}
					if sig := tr.Subtree(got[i]).Canonical(); sig != sigs[i] {
						t.Fatalf("%s: %s subtree %d materialises as %q, reference %q", name, tr, i, sig, sigs[i])
					}
				}
				trees, subtrees = trees+1, subtrees+len(got)
			}
		}
	}
	if trees < 100 {
		t.Fatalf("only %d trees compared", trees)
	}
	t.Logf("%d trees, %d subtrees compared", trees, subtrees)
}
