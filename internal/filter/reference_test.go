package filter

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"prism/internal/constraint"
	"prism/internal/difftest"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
)

// This file keeps filter decomposition and the dependency relation as they
// were computed before filters had integer identities: subtrees
// re-enumerated and re-canonicalised per candidate, one key string per
// candidate × subtree, every pair of filters compared. They are the oracle
// the indexed implementation must reproduce exactly — list order included,
// since propagation and the Implied counter follow it. Which target columns
// a specification constrains is read off its samples here, cell by cell.

func referenceFilterKey(tree graphx.Tree, targetCols []int, sources []schema.ColumnRef) string {
	parts := make([]string, 0, len(targetCols)+1)
	parts = append(parts, tree.Canonical())
	for i, tc := range targetCols {
		parts = append(parts, fmt.Sprintf("%d:%s", tc, strings.ToLower(sources[i].String())))
	}
	return strings.Join(parts, "#")
}

// referenceSet is what the quadratic decomposition produced.
type referenceSet struct {
	filters          []*Filter
	keys             []string
	candidateFilters [][]int
	top              []int
	parents          [][]int
	children         [][]int
	candidatesOf     [][]int
}

// referenceConstrained reports whether some sample of spec constrains target
// column tc: a nil spec constrains every column, and a column beyond a
// sample's cells (with no samples, beyond NumColumns) counts as constrained.
func referenceConstrained(spec *constraint.Spec) func(tc int) bool {
	return func(tc int) bool {
		if spec == nil {
			return true
		}
		if len(spec.Samples) == 0 {
			return tc >= spec.NumColumns
		}
		for _, sample := range spec.Samples {
			if tc >= len(sample.Cells) || sample.Cells[tc] != nil {
				return true
			}
		}
		return false
	}
}

// referenceDecompose decomposes the candidates under spec (nil: every target
// column constrained).
func referenceDecompose(spec *constraint.Spec, candidates []graphx.Candidate) *referenceSet {
	constrained := referenceConstrained(spec)
	s := &referenceSet{
		candidateFilters: make([][]int, len(candidates)),
		top:              make([]int, len(candidates)),
	}
	index := make(map[string]int)
	for ci, cand := range candidates {
		member := make(map[int]struct{})
		for _, sub := range enumerateSubtrees(cand.Tree) {
			var targetCols []int
			var sources []schema.ColumnRef
			hosted := 0
			for tc, src := range cand.Projection {
				if sub.Contains(src.Table) {
					hosted++
					if constrained(tc) {
						targetCols = append(targetCols, tc)
						sources = append(sources, src)
					}
				}
			}
			if hosted == 0 {
				continue
			}
			key := referenceFilterKey(sub, targetCols, sources)
			fi, ok := index[key]
			if !ok {
				fi = len(s.filters)
				index[key] = fi
				s.filters = append(s.filters, &Filter{Tree: sub, TargetCols: targetCols, Sources: sources})
				s.keys = append(s.keys, key)
			}
			member[fi] = struct{}{}
			if sub.Size() == cand.Tree.Size() && hosted == len(cand.Projection) {
				s.top[ci] = fi
			}
		}
		filters := make([]int, 0, len(member))
		for fi := range member {
			filters = append(filters, fi)
		}
		sort.Ints(filters)
		s.candidateFilters[ci] = filters
	}
	s.candidatesOf = make([][]int, len(s.filters))
	for ci, filters := range s.candidateFilters {
		for _, fi := range filters {
			s.candidatesOf[fi] = append(s.candidatesOf[fi], ci)
		}
	}
	shapes := make([]filterShape, len(s.filters))
	for i, f := range s.filters {
		shapes[i] = newFilterShape(f)
	}
	s.parents = make([][]int, len(s.filters))
	s.children = make([][]int, len(s.filters))
	for i := range s.filters {
		for j := range s.filters {
			if i != j && shapes[i].subsetOf(&shapes[j], s.filters[i], s.filters[j]) {
				s.parents[i] = append(s.parents[i], j)
				s.children[j] = append(s.children[j], i)
			}
		}
	}
	return s
}

// isSubFilter reports whether a is contained in b.
func isSubFilter(a, b *Filter) bool {
	sa, sb := newFilterShape(a), newFilterShape(b)
	return sa.subsetOf(&sb, a, b)
}

// filterShape is the containment-check data of one filter: sorted canonical
// edge keys and the covered target-column → lower-cased source mapping.
type filterShape struct {
	edgeKeys []string // sorted
	colSrc   map[int]string
}

func newFilterShape(f *Filter) filterShape {
	sh := filterShape{colSrc: make(map[int]string, len(f.TargetCols))}
	if len(f.Tree.Edges) > 0 {
		sh.edgeKeys = make([]string, len(f.Tree.Edges))
		for i, e := range f.Tree.Edges {
			a, b := strings.ToLower(e.From.String()), strings.ToLower(e.To.String())
			if a > b {
				a, b = b, a
			}
			sh.edgeKeys[i] = a + "=" + b
		}
		slices.Sort(sh.edgeKeys)
	}
	for i, tc := range f.TargetCols {
		sh.colSrc[tc] = strings.ToLower(f.Sources[i].String())
	}
	return sh
}

// subsetOf reports whether filter a (with shape sa) is contained in b: a's
// tables, edges and covered column mapping are all subsets of b's.
func (sa *filterShape) subsetOf(sb *filterShape, a, b *Filter) bool {
	if a.Tree.Size() > b.Tree.Size() || len(a.TargetCols) > len(b.TargetCols) {
		return false
	}
	for _, t := range a.Tree.Tables {
		if !b.Tree.Contains(t) {
			return false
		}
	}
	j := 0
	for _, ek := range sa.edgeKeys {
		for j < len(sb.edgeKeys) && sb.edgeKeys[j] < ek {
			j++
		}
		if j >= len(sb.edgeKeys) || sb.edgeKeys[j] != ek {
			return false
		}
	}
	for tc, src := range sa.colSrc {
		if sb.colSrc[tc] != src {
			return false
		}
	}
	return true
}

// enumerateSubtrees lists every connected subtree of the candidate tree
// (including single tables and the full tree).
func enumerateSubtrees(t graphx.Tree) []graphx.Tree {
	seen := make(map[string]struct{})
	var out []graphx.Tree
	add := func(sub graphx.Tree) {
		key := sub.Canonical()
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		out = append(out, sub)
	}
	var expand func(sub graphx.Tree)
	expand = func(sub graphx.Tree) {
		for _, table := range sub.Tables {
			for _, e := range t.Edges {
				var other string
				switch {
				case strings.EqualFold(e.From.Table, table):
					other = e.To.Table
				case strings.EqualFold(e.To.Table, table):
					other = e.From.Table
				default:
					continue
				}
				if sub.Contains(other) {
					continue
				}
				next := graphx.Tree{
					Tables: append(append([]string(nil), sub.Tables...), other),
					Edges:  append(append([]schema.ForeignKey(nil), sub.Edges...), e),
				}
				key := next.Canonical()
				if _, dup := seen[key]; dup {
					continue
				}
				add(next)
				expand(next)
			}
		}
	}
	for _, table := range t.Tables {
		sub := graphx.Tree{Tables: []string{table}}
		add(sub)
		expand(sub)
	}
	return out
}

// PruningReach returns the number of currently unresolved candidates that
// contain filter i, by scanning them: what the scheduler's reach counters
// must equal.
func (s *Session) PruningReach(i int) int {
	n := 0
	for _, ci := range s.Set.CandidatesOf(i) {
		if s.Status[ci] == CandidateUnresolved {
			n++
		}
	}
	return n
}

// sameSet requires the decomposition to equal the reference in everything a
// scheduler can observe, list orders included.
func sameSet(t *testing.T, name string, got *Set, want *referenceSet) {
	t.Helper()
	if len(got.Filters) != len(want.filters) {
		t.Errorf("%s: %d filters, reference %d", name, len(got.Filters), len(want.filters))
		return
	}
	for i, g := range got.Filters {
		w, key := want.filters[i], g.Key()
		if key != want.keys[i] || !slices.Equal(g.TargetCols, w.TargetCols) || !slices.Equal(g.Sources, w.Sources) ||
			!slices.Equal(g.Tree.Tables, w.Tree.Tables) || !slices.Equal(g.Tree.Edges, w.Tree.Edges) {
			t.Errorf("%s filter %d: %s (%q), reference %s (%q)", name, i, g, key, w, want.keys[i])
			return
		}
		if !slices.Equal(got.Parents(i), want.parents[i]) {
			t.Errorf("%s filter %d (%s): parents %v, reference %v", name, i, key, got.Parents(i), want.parents[i])
			return
		}
		if !slices.Equal(got.Children(i), want.children[i]) {
			t.Errorf("%s filter %d (%s): children %v, reference %v", name, i, key, got.Children(i), want.children[i])
			return
		}
		if !slices.Equal(got.CandidatesOf(i), want.candidatesOf[i]) {
			t.Errorf("%s filter %d (%s): candidates %v, reference %v", name, i, key, got.CandidatesOf(i), want.candidatesOf[i])
			return
		}
	}
	if !slices.Equal(got.Top, want.top) {
		t.Errorf("%s: top filters %v, reference %v", name, got.Top, want.top)
	}
	for ci := range got.CandidateFilters {
		if !slices.Equal(got.CandidateFilters[ci], want.candidateFilters[ci]) {
			t.Errorf("%s candidate %d: filters %v, reference %v", name, ci, got.CandidateFilters[ci], want.candidateFilters[ci])
			return
		}
	}
}

// differentialRounds enumerates the generator pool of one database on one
// graph, as an engine would. The widest rounds (IMDB and NBA specifications
// of four and six loosely constrained columns) would hit the default cap of
// 5000 candidates; 1200 keeps the quadratic reference to half a second.
func differentialRounds(t *testing.T, db *mem.Database, perLevel int) (rounds []difftest.Round, candidates [][]graphx.Candidate) {
	t.Helper()
	g := graphx.New(db.Schema())
	rounds = difftest.Rounds(t, db, perLevel)
	for _, round := range rounds {
		cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{MaxCandidates: 1200, RequireUsefulLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		candidates = append(candidates, cands)
	}
	return rounds, candidates
}

// TestDecomposeMatchesReference compares the indexed decomposition with the
// quadratic one over the generator pools of the three bundled databases,
// low-resolution rounds of more than a thousand candidates included: under
// each round's specification, and with every target column constrained.
func TestDecomposeMatchesReference(t *testing.T) {
	widest := 0
	for name, db := range difftest.Databases(t) {
		rounds, candidates := differentialRounds(t, db, 1)
		filters, nodes := 0, 0
		for i, round := range rounds {
			got, err := DecomposeFor(context.Background(), round.Spec, candidates[i])
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, name+" "+round.Name, got, referenceDecompose(round.Spec, candidates[i]))
			nodes += got.NumFilters()
			free, err := DecomposeContext(context.Background(), candidates[i])
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, name+" "+round.Name+" spec-free", free, referenceDecompose(nil, candidates[i]))
			filters += free.NumFilters()
			widest = max(widest, len(candidates[i]))
		}
		if nodes == 0 || nodes >= filters {
			t.Errorf("%s: %d filters under the specifications, %d with every target constrained; want fewer, but some", name, nodes, filters)
		}
	}
	if widest < 1000 {
		t.Errorf("widest round has %d candidates; the low-resolution recipe should pass a thousand", widest)
	}
}

// TestDecomposeHandBuiltCandidates decomposes candidates that carry no
// catalogue entry — literals, one of them spelled in another case, mixed
// with enumerated ones and out of tree order — through the fallback.
func TestDecomposeHandBuiltCandidates(t *testing.T) {
	fx := newFixture(t)
	var mixed []graphx.Candidate
	for i, c := range fx.candidates {
		lit := graphx.Candidate{
			Tree:       graphx.Tree{Tables: slices.Clone(c.Tree.Tables), Edges: slices.Clone(c.Tree.Edges)},
			Projection: slices.Clone(c.Projection),
		}
		if i%2 == 0 {
			for k := range lit.Projection {
				lit.Projection[k].Column = strings.ToUpper(lit.Projection[k].Column)
			}
		}
		mixed = append(mixed, lit)
	}
	// Interleave the enumerated originals in reverse, so equal filters meet
	// across the two kinds and consecutive candidates rarely share a tree.
	for i := len(fx.candidates) - 1; i >= 0; i-- {
		mixed = append(mixed, fx.candidates[i])
	}
	got, err := DecomposeFor(context.Background(), fx.spec, mixed)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "hand-built", got, referenceDecompose(fx.spec, mixed))
}

// TestDecomposeContextCancelled requires a dead context to abort the
// decomposition with its error, before and during the dependency relation.
func TestDecomposeContextCancelled(t *testing.T) {
	fx := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if set, err := DecomposeContext(ctx, fx.candidates); !errors.Is(err, context.Canceled) || set != nil {
		t.Errorf("cancelled before the first candidate: set %v, err %v", set, err)
	}
	// Dead by the time the relation is built: the candidate loop polls the
	// context every 64 candidates, so a short list reaches the relation.
	polls := 0
	late := pollCountingContext{Context: context.Background(), dieAfter: 1, polls: &polls}
	if set, err := DecomposeContext(late, fx.candidates); !errors.Is(err, context.Canceled) || set != nil {
		t.Errorf("cancelled before the dependency relation: set %v, err %v (polled %d times)", set, err, polls)
	}
}

// pollCountingContext reports itself cancelled from the (dieAfter+1)-th call
// to Err on.
type pollCountingContext struct {
	context.Context
	dieAfter int
	polls    *int
}

func (c pollCountingContext) Err() error {
	*c.polls++
	if *c.polls > c.dieAfter {
		return context.Canceled
	}
	return nil
}

// TestParentsAreStrict requires the dependency relation to be a strict
// order over the generator pools of the three bundled databases: every
// super-filter contains the filter and has a larger tree, or the same tree
// and more covered columns. Then no two filters contain each other, and the
// relation has no cycle.
func TestParentsAreStrict(t *testing.T) {
	edges := 0
	for name, db := range difftest.Databases(t) {
		rounds, candidates := differentialRounds(t, db, 2)
		for i, round := range rounds {
			set, err := DecomposeFor(context.Background(), round.Spec, candidates[i])
			if err != nil {
				t.Fatal(err)
			}
			for fi, f := range set.Filters {
				for _, pi := range set.Parents(fi) {
					p := set.Filters[pi]
					edges++
					larger := p.Tree.Size() > f.Tree.Size()
					wider := p.Tree.Canonical() == f.Tree.Canonical() && len(p.TargetCols) > len(f.TargetCols)
					if !isSubFilter(f, p) || !(larger || wider) {
						t.Fatalf("%s %s: %s has the parent %s, which is no strictly larger filter", name, round.Name, f, p)
					}
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no parent edge checked")
	}
}
