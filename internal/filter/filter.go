// Package filter implements the filter-based validation of candidate schema
// mapping queries (§2.3 step #2).
//
// A filter is a sub-join-tree of a candidate query together with the
// constrained target columns whose source columns fall inside the subtree —
// a shorter Project-Join query. Validating a filter asks whether, for every
// sample constraint, the filter's result contains a tuple matching the
// sample's cells restricted to the covered target columns. Because any tuple
// of the full candidate projects onto a tuple of each of its filters:
//
//   - if a filter fails, every filter containing it and every candidate it
//     was derived from fail too (upward failure propagation, the pruning
//     the paper exploits);
//   - if a filter passes, every filter contained in it passes too
//     (downward success propagation).
//
// Filters are shared across candidates: one cheap validation can prune many
// expensive candidates, which is why the order of validation (the concern
// of package sched) matters.
package filter

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/graphx"
	"prism/internal/lang"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// Outcome is the validation state of a filter.
type Outcome uint8

const (
	// Unknown means the filter has not been validated or implied yet.
	Unknown Outcome = iota
	// Passed means the filter is satisfied (validated directly or implied
	// by a passing super-filter).
	Passed
	// Failed means the filter is violated (validated directly or implied by
	// a failing sub-filter).
	Failed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Unknown:
		return "unknown"
	case Passed:
		return "passed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Filter is one sub-join-tree with its covered constrained target columns.
// Its outcome depends on the tree and on the source columns the covered
// cells constrain, not on which target columns they are: ValidationKey keys
// it by TreeSignature and its (source column, cell) pairs.
type Filter struct {
	// Tree is the sub-join-tree (tables plus foreign-key edges).
	Tree graphx.Tree
	// TargetCols lists the covered target-column indexes, ascending.
	TargetCols []int
	// Sources lists, parallel to TargetCols, the source column each covered
	// target column projects from.
	Sources []schema.ColumnRef

	planOnce sync.Once
	plan     exec.Plan
	sigOnce  sync.Once
	sig      string
}

// Plan returns the executable Project-Join plan of the filter. The plan is
// built once and memoised — a filter is validated once per sample per
// round, and the hot validation path must not re-allocate the slices every
// probe. The returned plan's slices are shared; callers (executors) treat
// plans as read-only.
func (f *Filter) Plan() exec.Plan {
	f.planOnce.Do(func() {
		joins := make([]exec.JoinEdge, len(f.Tree.Edges))
		for i, e := range f.Tree.Edges {
			joins[i] = exec.JoinEdge{Left: e.From, Right: e.To}
		}
		f.plan = exec.Plan{
			Tables:  f.Tree.Tables,
			Joins:   joins,
			Project: f.Sources,
		}
	})
	return f.plan
}

// TreeSignature returns the signature of the filter's join tree: its table
// count, then its Canonical text, so a one-table name cannot read as an
// edge list. Two filters have equal signatures exactly when they join the
// same tables over the same edges, whatever the order, case or direction
// they are spelled in. It is memoised: the outcome cache keys on it every
// round (ValidationKey), and a session's filters outlive their rounds.
func (f *Filter) TreeSignature() string {
	f.sigOnce.Do(func() { f.sig = strconv.Itoa(f.Tree.Size()) + ":" + f.Tree.Canonical() })
	return f.sig
}

// Key renders the canonical identity of the filter: its tree's signature
// and its covered (target column, lower-cased source column) pairs. Filters
// with equal keys are one filter of a Set; the Set tells them apart by
// integers and renders no key.
func (f *Filter) Key() string {
	key := []byte(f.Tree.Canonical())
	for i, tc := range f.TargetCols {
		key = strconv.AppendInt(append(key, '#'), int64(tc), 10)
		key = append(append(key, ':'), strings.ToLower(f.Sources[i].String())...)
	}
	return string(key)
}

// JoinPathLength returns the number of join edges; the Filter baseline's
// failure-probability heuristic is proportional to it.
func (f *Filter) JoinPathLength() int { return len(f.Tree.Edges) }

// String renders the filter compactly.
func (f *Filter) String() string {
	cols := make([]string, len(f.TargetCols))
	for i, tc := range f.TargetCols {
		cols[i] = fmt.Sprintf("c%d=%s", tc+1, f.Sources[i])
	}
	return fmt.Sprintf("filter[%s | %s]", f.Tree, strings.Join(cols, ", "))
}

// Set is the filter decomposition of a batch of candidate queries under a
// specification, with the candidate associations and the sub/super
// dependency relation.
type Set struct {
	// Filters holds every distinct filter.
	Filters []*Filter
	// Candidates are the decomposed candidates, in the order given.
	Candidates []graphx.Candidate
	// CandidateFilters lists, per candidate, the indexes of its filters.
	CandidateFilters [][]int
	// Top lists, per candidate, the index of its top (complete) filter.
	Top []int
	// trees lists, per candidate, the id of its join tree (see TreeID).
	trees []int32
	// parents[i] lists filters that contain filter i (super-filters).
	parents [][]int
	// children[i] lists filters contained in filter i (sub-filters).
	children [][]int
	// candidatesOf[i] lists candidates that include filter i.
	candidatesOf [][]int
}

// NumFilters returns the number of distinct filters.
func (s *Set) NumFilters() int { return len(s.Filters) }

// NumCandidates returns the number of candidates.
func (s *Set) NumCandidates() int { return len(s.Candidates) }

// TreeID returns the id the decomposition gave candidate ci's join tree: two
// candidates have the same id exactly when their trees have the same
// Canonical signature. It is -1 for a tree that is not connected.
func (s *Set) TreeID(ci int) int32 { return s.trees[ci] }

// Parents returns the indexes of super-filters of filter i, ascending.
func (s *Set) Parents(i int) []int { return s.parents[i] }

// Children returns the indexes of sub-filters of filter i, ascending.
func (s *Set) Children(i int) []int { return s.children[i] }

// CandidatesOf returns the candidates containing filter i, ascending.
func (s *Set) CandidatesOf(i int) []int { return s.candidatesOf[i] }

// DecomposeFor builds the filter set of the candidates under spec: every
// connected subtree of each candidate's join tree that hosts at least one
// projected column becomes a filter, deduplicated across candidates. A
// filter covers the target columns that spec constrains (ConstrainedTargets)
// and whose source columns its subtree hosts.
//
// A filter is thus one outcome class: validation passes any unconstrained
// cell (constraint.SampleConstraint.MatchesProjection) and never filters on
// the projection, so the columns a subtree hosts for unconstrained targets
// cannot change its outcome, and candidates that differ only there share
// their filters, top filter included. A subtree hosting only unconstrained
// columns is a filter that projects nothing, a probe of whether its join is
// non-empty.
//
// Cancellation is checked throughout and aborts with ctx.Err().
//
// A filter is identified by integers — the id of its subtree and the
// (target column, source column id) pairs it covers — and a subtree by the
// ids of its edges (or of its one table), so a join tree is taken apart
// (graphx.Tree.Subtrees) once per tree with no signature rendered, and a
// candidate costs one map probe per subtree. The dependency
// relation is then read off an index instead of comparing every pair of
// filters: see lattice.
func DecomposeFor(ctx context.Context, spec *constraint.Spec, candidates []graphx.Candidate) (*Set, error) {
	return decompose(ctx, ConstrainedTargets(spec), candidates)
}

// DecomposeContext is DecomposeFor with every target column constrained:
// each filter covers every target column its subtree hosts.
//
// Deprecated: ROADMAP item 0e; only the staged replay under benchmark/
// calls it.
func DecomposeContext(ctx context.Context, candidates []graphx.Candidate) (*Set, error) {
	return decompose(ctx, nil, candidates)
}

// decompose builds the filter set of the candidates whose filters cover the
// target columns the mask constrains; a target column at or beyond its
// length counts as constrained.
func decompose(ctx context.Context, constrained []bool, candidates []graphx.Candidate) (*Set, error) {
	s := &Set{
		Candidates:       candidates,
		CandidateFilters: make([][]int, len(candidates)),
		Top:              make([]int, len(candidates)),
		trees:            make([]int32, len(candidates)),
	}
	d := decomposer{
		constrained: constrained,
		trees:       make(map[string]int32),
		edges:       newInterner(func(fk schema.ForeignKey) string { return schema.EdgeSignature(fk.From, fk.To) }),
		tables:      newInterner(strings.ToLower),
		sources:     newInterner(func(ref schema.ColumnRef) string { return strings.ToLower(ref.String()) }),
		index:       make(map[string]int),
		// members is a dense filter-index bitset reused across candidates;
		// iterating it recovers each candidate's filter list in ascending
		// order without a per-candidate map + sort.
		members: rowset.New(0),
	}
	for ci, cand := range candidates {
		if ci%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		d.add(s, ci, cand)
	}

	s.candidatesOf = transpose(s.CandidateFilters, len(s.Filters))
	if err := d.lattice(ctx, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ConstrainedTargets reports, per target column below the widest sample,
// whether some sample of spec constrains it, as the validator reads the
// samples: a column beyond a sample's cells is constrained (the sample
// rejects every tuple projected onto it), and a specification with no
// samples checks one sample of NumColumns unconstrained cells. A set built
// by DecomposeFor depends on the specification only through this mask.
func ConstrainedTargets(spec *constraint.Spec) []bool {
	if len(spec.Samples) == 0 {
		return make([]bool, spec.NumColumns)
	}
	widest := 0
	for _, sample := range spec.Samples {
		widest = max(widest, len(sample.Cells))
	}
	out := make([]bool, widest)
	for _, sample := range spec.Samples {
		for tc := range out {
			if tc >= len(sample.Cells) || sample.Cells[tc] != nil {
				out[tc] = true
			}
		}
	}
	return out
}

// decomposer holds the dense ids one decomposition assigns: to foreign-key
// edges, tables and projected source columns, from those to subtrees, and
// from subtrees and source columns to filters.
type decomposer struct {
	// constrained is the mask of decompose: a filter covers target column tc
	// when tc >= len(constrained) or constrained[tc].
	constrained []bool
	// trees maps a subtree's key (see treeKey) to its id.
	trees map[string]int32
	// edges, tables and sources give ids to foreign keys by their
	// schema.EdgeSignature, to tables by their lower-cased name and to
	// projected columns by their lower-cased text: spellings that differ in
	// case (or a key's direction) share an id.
	edges   interner[schema.ForeignKey]
	tables  interner[string]
	sources interner[schema.ColumnRef]
	// index maps a filter's identity (see identity) to its index.
	index map[string]int
	// filterTree and filterCols hold, per filter, its tree id and its
	// covered (target column, source id) pairs; lattice reads them.
	filterTree []int32
	filterCols [][]colSource
	// contains lists the (sub, super) pairs of tree ids, and paired marks
	// the trees whose subtrees have been paired up already.
	contains [][2]int32
	paired   []bool
	// numCols is the widest projection seen.
	numCols int

	// tree is the decomposition of the join tree of the last candidate;
	// consecutive candidates usually share theirs.
	tree    treeParts
	members *rowset.Bitmap
	// Scratch, reused across candidates; last is the previous candidate's
	// projection, whose source ids srcs holds.
	last []schema.ColumnRef
	pos  []int
	srcs []int32
	cols []colSource
	ids  []int32
	key  []byte
}

// interner gives dense ids to values by their text: values whose text is
// equal share an id, and a value's text is rendered once per decomposition.
type interner[K comparable] struct {
	of     map[K]int32
	byText map[string]int32
	text   func(K) string
}

func newInterner[K comparable](text func(K) string) interner[K] {
	return interner[K]{of: make(map[K]int32), byText: make(map[string]int32), text: text}
}

// id returns the id of k.
func (in *interner[K]) id(k K) int32 {
	if id, ok := in.of[k]; ok {
		return id
	}
	text := in.text(k)
	id, ok := in.byText[text]
	if !ok {
		id = int32(len(in.byText))
		in.byText[text] = id
	}
	in.of[k] = id
	return id
}

// len returns the number of ids given.
func (in *interner[K]) len() int { return len(in.byText) }

// colSource is one covered target column with the id of its source column.
type colSource struct {
	target int
	source int32
}

// treeParts is one candidate join tree split into its connected subtrees.
type treeParts struct {
	of   graphx.Tree
	subs []graphx.Subtree
	// ids[k] is the tree id of subs[k], whole that of the tree itself (-1
	// for a tree that is not connected); has[k*size+p] reports whether the
	// tree's p-th table is in subs[k].
	ids   []int32
	whole int32
	has   []bool
	size  int
}

// split decomposes the tree of a candidate, unless it is the previous
// candidate's: enumeration emits the candidates of one tree together, all
// sharing the tree's slices.
func (d *decomposer) split(t graphx.Tree) *treeParts {
	tp := &d.tree
	if sameSlice(t.Tables, tp.of.Tables) && sameSlice(t.Edges, tp.of.Edges) {
		return tp
	}
	subs := t.Subtrees()
	tp.of = t
	tp.subs, tp.size = subs, t.Size()
	tp.ids = tp.ids[:0]
	tp.has = slices.Grow(tp.has[:0], len(subs)*tp.size)[:len(subs)*tp.size]
	clear(tp.has)
	tp.whole = -1
	for k, sub := range subs {
		d.key = d.treeKey(d.key[:0], t, sub)
		id, ok := d.trees[string(d.key)]
		if !ok {
			id = int32(len(d.trees))
			d.trees[string(d.key)] = id
			d.paired = append(d.paired, false)
		}
		tp.ids = append(tp.ids, id)
		for _, p := range sub.Tables() {
			tp.has[k*tp.size+int(p)] = true
		}
		if sub.Size() == tp.size {
			tp.whole = id
		}
	}
	if tp.whole < 0 || d.paired[tp.whole] {
		return tp
	}
	d.paired[tp.whole] = true
	// Two subtrees of one tree contain each other exactly when their table
	// sets do: a connected table set of a tree has one set of edges.
	for k := range subs {
		for l := range subs {
			if subs[k].Size() < subs[l].Size() && subset(tp.has[k*tp.size:(k+1)*tp.size], tp.has[l*tp.size:(l+1)*tp.size]) {
				d.contains = append(d.contains, [2]int32{tp.ids[k], tp.ids[l]})
			}
		}
	}
	return tp
}

// treeKey appends the map key of a subtree of t: the id of its table when it
// has one, else the ascending ids of its edges — the integer form of the
// subtree's Canonical signature.
func (d *decomposer) treeKey(key []byte, t graphx.Tree, sub graphx.Subtree) []byte {
	if sub.Size() == 1 {
		return binary.LittleEndian.AppendUint32(append(key, 't'), uint32(d.tables.id(t.Tables[sub.Tables()[0]])))
	}
	d.ids = d.ids[:0]
	for _, e := range sub.Edges() {
		d.ids = append(d.ids, d.edges.id(t.Edges[e]))
	}
	slices.Sort(d.ids)
	key = append(key, 'e')
	for _, id := range d.ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	return key
}

// sameSlice reports whether a and b are the same slice: same backing array,
// same length. Two empty slices are the same only when both are nil.
func sameSlice[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return (a == nil) == (b == nil)
	}
	return &a[0] == &b[0]
}

func subset(a, b []bool) bool {
	for i, in := range a {
		if in && !b[i] {
			return false
		}
	}
	return true
}

// add decomposes one candidate into the set.
func (d *decomposer) add(s *Set, ci int, cand graphx.Candidate) {
	tp := d.split(cand.Tree)
	s.trees[ci] = tp.whole
	d.numCols = max(d.numCols, len(cand.Projection))
	// Per target column: the id of its source column — kept from the
	// previous candidate where that projects the same column, as the
	// candidates of one tree mostly do — and the position of the source's
	// table in the candidate's tree.
	if len(d.srcs) != len(cand.Projection) {
		d.srcs, d.last = make([]int32, len(cand.Projection)), nil
	}
	d.pos = d.pos[:0]
	for tc, src := range cand.Projection {
		if d.last == nil || d.last[tc] != src {
			d.srcs[tc] = d.sources.id(src)
		}
		d.pos = append(d.pos, tablePosition(cand.Tree.Tables, src.Table))
	}
	d.last = cand.Projection
	// Size the bitset for the worst case: every subtree mints a new filter.
	d.members.Reset(len(s.Filters) + len(tp.subs))
	for k, sub := range tp.subs {
		d.cols = d.cols[:0]
		hosted := 0
		for tc, p := range d.pos {
			if p < 0 || !tp.has[k*tp.size+p] {
				continue
			}
			hosted++
			if tc >= len(d.constrained) || d.constrained[tc] {
				d.cols = append(d.cols, colSource{target: tc, source: d.srcs[tc]})
			}
		}
		if hosted == 0 {
			continue
		}
		d.key = identity(d.key[:0], tp.ids[k], d.cols)
		fi, ok := d.index[string(d.key)]
		if !ok {
			fi = len(s.Filters)
			d.index[string(d.key)] = fi
			s.Filters = append(s.Filters, d.mint(cand, sub))
			d.filterTree = append(d.filterTree, tp.ids[k])
			d.filterCols = append(d.filterCols, slices.Clone(d.cols))
		}
		d.members.Add(int32(fi))
		if sub.Size() == tp.size && hosted == len(cand.Projection) {
			s.Top[ci] = fi
		}
	}
	filters := make([]int, 0, d.members.Popcount())
	d.members.ForEach(func(fi int32) bool {
		filters = append(filters, int(fi))
		return true
	})
	s.CandidateFilters[ci] = filters
}

// tablePosition returns the position of the table in tables, -1 if absent.
// Names in the spelling the tree uses are found without case folding.
func tablePosition(tables []string, table string) int {
	if p := slices.Index(tables, table); p >= 0 {
		return p
	}
	return slices.IndexFunc(tables, func(t string) bool { return strings.EqualFold(t, table) })
}

// identity appends the map key of a filter: its tree id and its covered
// (target column, source id) pairs, fixed width.
func identity(key []byte, tree int32, cols []colSource) []byte {
	key = binary.LittleEndian.AppendUint32(key, uint32(tree))
	for _, c := range cols {
		key = binary.LittleEndian.AppendUint32(key, uint32(c.target))
		key = binary.LittleEndian.AppendUint32(key, uint32(c.source))
	}
	return key
}

// mint builds the filter of a subtree of cand covering d.cols; with no
// column to cover, its plan projects nothing.
func (d *decomposer) mint(cand graphx.Candidate, sub graphx.Subtree) *Filter {
	f := &Filter{Tree: cand.Tree.Subtree(sub)}
	if len(d.cols) > 0 {
		f.TargetCols = make([]int, len(d.cols))
		f.Sources = make([]schema.ColumnRef, len(d.cols))
	}
	for i, c := range d.cols {
		f.TargetCols[i] = c.target
		f.Sources[i] = cand.Projection[c.target]
	}
	return f
}

// lattice fills in the dependency relation: i ≺ j (i is a sub-filter of j)
// iff i's tree is contained in j's and every target column i covers, j
// covers from the same source column. The relation is a strict order: a
// filter's identity is its tree and its pairs, so a super-filter has a
// larger tree, or the same tree and more pairs.
//
// Rather than test every pair, it indexes the filters twice — by tree and
// by covered (target column, source) pair — as bitsets over filter indexes.
// The super-filters of i are then the filters whose tree contains i's
// (the union of the tree postings over the super-trees, prepared once per
// tree) intersected with the posting of every pair i covers. Bitset
// iteration yields them ascending, and the children lists are the
// transpose, filled in ascending order of the sub-filter.
func (d *decomposer) lattice(ctx context.Context, s *Set) error {
	n := len(s.Filters)
	// own[t] collects the filters of tree t, within[t] the filters whose
	// tree contains t: its own and those of its super-trees. A tree that
	// hosts no projected column in any candidate has neither.
	own := make([]*rowset.Bitmap, len(d.trees))
	for fi, t := range d.filterTree {
		if own[t] == nil {
			own[t] = rowset.New(n)
		}
		own[t].Add(int32(fi))
	}
	within := make([]*rowset.Bitmap, len(own))
	for t, b := range own {
		if b != nil {
			within[t] = rowset.New(n)
			within[t].Or(b)
		}
	}
	for _, pair := range d.contains {
		if sub, super := pair[0], pair[1]; within[sub] != nil && own[super] != nil {
			within[sub].Or(own[super])
		}
	}
	// covering[target*sources+source] collects the filters covering the
	// target column from that source.
	sources := d.sources.len()
	covering := make([]*rowset.Bitmap, d.numCols*sources)
	for fi, cols := range d.filterCols {
		for _, c := range cols {
			at := c.target*sources + int(c.source)
			if covering[at] == nil {
				covering[at] = rowset.New(n)
			}
			covering[at].Add(int32(fi))
		}
	}

	s.parents = make([][]int, n)
	supers := rowset.New(n)
	var flat []int32
	starts := make([]int, n+1)
	for i := range s.Filters {
		if i%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		supers.Reset(n)
		supers.Or(within[d.filterTree[i]])
		for _, c := range d.filterCols[i] {
			supers.And(covering[c.target*sources+int(c.source)])
		}
		supers.Remove(int32(i))
		flat = supers.AppendTo(flat)
		starts[i+1] = len(flat)
	}
	parents := make([]int, len(flat))
	for k, j := range flat {
		parents[k] = int(j)
	}
	for i := range s.parents {
		s.parents[i] = parents[starts[i]:starts[i+1]:starts[i+1]]
	}
	s.children = transpose(s.parents, n)
	return nil
}

// transpose inverts a relation given as lists: out[j] lists the i whose
// lists[i] contains j, ascending. The lists are carved out of one array and
// capped, so that an append by a caller cannot run into a neighbour.
func transpose(lists [][]int, n int) [][]int {
	counts := make([]int, n)
	total := 0
	for _, list := range lists {
		for _, j := range list {
			counts[j]++
		}
		total += len(list)
	}
	out := make([][]int, n)
	flat := make([]int, total)
	at := 0
	for j, c := range counts {
		out[j] = flat[at : at : at+c]
		at += c
	}
	for i, list := range lists {
		for _, j := range list {
			out[j] = append(out[j], i)
		}
	}
	return out
}

// ValidationResult reports one filter validation.
type ValidationResult struct {
	Passed bool
	Cost   exec.ExecStats
}

// Validator executes filter validations against an execution backend for
// the specification of its round table. It keeps no state of its own, so it
// is safe for concurrent use.
type Validator struct {
	// DB is the execution backend probed by validations: any exec.Executor
	// (the in-memory reference engine or the columnar engine).
	DB exec.Executor
	// Cells is the round table the validations read: the specification,
	// its cells' pushed-down predicates and the selections they make, which
	// every probe hands the executor (exec.ExecOptions.Selections) — so the
	// filters that constrain one source column by one cell share one
	// selection of it, with each other and with the round's estimator.
	Cells *Cells
}

// Cells is the round table of one specification: the pushed-down predicate
// of every constrained cell, identified by its rank, and the rows each
// selects on every source column it meets (exec.SelectionMemo), selected by
// whichever of the round's failure estimator and its validations asks first
// and read by both after. A scheduling run creates one and drops it with the
// run. It is safe for concurrent use.
type Cells struct {
	spec *constraint.Spec
	// preds[sample][target] is the predicate of that cell with its Ref
	// unset, or — Pred nil — nothing, where the cell is unconstrained.
	preds [][]exec.ColumnPredicate
	sels  exec.SelectionMemo
}

// NewCells derives the pushed-down predicate of every constrained cell of
// spec: its Eval closure; the keyword cover of an equality-shaped cell,
// normalised once (exec.ColumnIndex.Select evaluates the cell on the value
// ids those keywords list); the numeric interval cover of a range or
// ordering shape, which the columnar executor compares against a column's
// views to prove a selection empty, exact for a pure numeric range (the
// selection is then read off the sorted views); and the cell's identity
// (exec.ColumnPredicate.ID), its rank, from 1, among the constrained cells.
func NewCells(spec *constraint.Spec) *Cells {
	c := &Cells{spec: spec, preds: make([][]exec.ColumnPredicate, len(spec.Samples))}
	id := uint32(0)
	for si, sample := range spec.Samples {
		row := make([]exec.ColumnPredicate, len(sample.Cells))
		for ti, expr := range sample.Cells {
			if expr == nil {
				continue
			}
			id++
			p := exec.ColumnPredicate{Pred: expr.Eval, ID: id}
			if kws, ok := lang.EqualityKeywords(expr); ok {
				for i, kw := range kws {
					kws[i] = value.Normalize(kw)
				}
				p.Keywords = kws
			}
			if b, ok := lang.NumericBounds(expr); ok {
				p.Bounds = &exec.NumericBounds{Lo: b.Lo, Hi: b.Hi, HasLo: b.HasLo, HasHi: b.HasHi}
				_, p.BoundsExact = lang.ExactRangeBounds(expr)
			}
			row[ti] = p
		}
		c.preds[si] = row
	}
	return c
}

// Rows returns the rows of column x that the constrained cell (sample,
// target) keeps, for the failure estimator, and whether this call selected
// them (exec.SelectionMemo.Rows).
func (c *Cells) Rows(sample, target int, x *exec.ColumnIndex) (sel *exec.Selection, filled bool) {
	return c.sels.Rows(x, &c.preds[sample][target])
}

// Selections returns the table's selections, which the executions of the
// round read through exec.ExecOptions.Selections.
func (c *Cells) Selections() *exec.SelectionMemo { return &c.sels }

// predicates returns the pushed-down predicates of filter f under sample
// si, one per constrained cell f projects, each on the source column f
// maps the cell's target column to.
func (c *Cells) predicates(f *Filter, si int) []exec.ColumnPredicate {
	if si >= len(c.preds) {
		return nil
	}
	row := c.preds[si]
	var preds []exec.ColumnPredicate
	for i, tc := range f.TargetCols {
		if tc >= len(row) || row[tc].Pred == nil {
			continue
		}
		p := row[tc]
		p.Ref = f.Sources[i]
		preds = append(preds, p)
	}
	return preds
}

// Validate executes the filter without cancellation; it is shorthand for
// ValidateContext with a background context.
func (v *Validator) Validate(f *Filter) (ValidationResult, error) {
	return v.ValidateContext(context.Background(), f)
}

// ValidateContext executes the filter: for every sample constraint there
// must be a result tuple of the filter's plan matching the sample's cells
// restricted to the covered target columns. Samples with no constrained
// covered cells still require the sub-join to be non-empty.
//
// Cancelling ctx aborts the validation mid-execution (between samples and
// inside the row-processing loops of the in-memory executor) and returns
// ctx.Err().
func (v *Validator) ValidateContext(ctx context.Context, f *Filter) (ValidationResult, error) {
	plan := f.Plan()
	var total exec.ExecStats
	spec := v.Cells.spec
	samples := spec.Samples
	if len(samples) == 0 {
		samples = []constraint.SampleConstraint{{Cells: make([]lang.ValueExpr, spec.NumColumns)}}
	}
	for si, sample := range samples {
		if err := ctx.Err(); err != nil {
			return ValidationResult{Cost: total}, err
		}
		opts := exec.ExecOptions{
			ColumnPredicates: v.Cells.predicates(f, si),
			Interrupt:        func() bool { return ctx.Err() != nil },
			Selections:       v.Cells.Selections(),
		}
		// The pushed-down predicates already enforce every covered cell, but
		// keep a tuple predicate as a defence in depth for shared source
		// columns (two target columns projecting the same source column).
		cols := f.TargetCols
		opts.TuplePredicate = func(t value.Tuple) bool {
			return sample.MatchesProjection(cols, t)
		}
		ok, stats, err := v.DB.Exists(plan, opts)
		total.Add(stats)
		if err != nil {
			if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
				return ValidationResult{Cost: total}, ctx.Err()
			}
			return ValidationResult{Cost: total}, fmt.Errorf("filter: validating %s: %w", f, err)
		}
		if !ok {
			return ValidationResult{Passed: false, Cost: total}, nil
		}
	}
	return ValidationResult{Passed: true, Cost: total}, nil
}

// CandidateStatus is the resolution state of a candidate during scheduling.
type CandidateStatus uint8

const (
	// CandidateUnresolved means the candidate is neither confirmed nor
	// pruned yet.
	CandidateUnresolved CandidateStatus = iota
	// CandidateConfirmed means its top filter passed: the candidate is a
	// final schema mapping query.
	CandidateConfirmed
	// CandidatePruned means one of its filters failed.
	CandidatePruned
)

// String names the status.
func (s CandidateStatus) String() string {
	switch s {
	case CandidateUnresolved:
		return "unresolved"
	case CandidateConfirmed:
		return "confirmed"
	case CandidatePruned:
		return "pruned"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Session tracks validation outcomes, propagates implications through the
// filter dependency DAG, and resolves candidates.
type Session struct {
	Set      *Set
	Outcomes []Outcome
	Status   []CandidateStatus

	// Executed counts filter validations actually run (the paper's metric).
	Executed int
	// Implied counts outcomes derived through propagation instead of
	// execution.
	Implied int
	// Cached counts outcomes served from a cross-round outcome cache —
	// validations an interactive session skipped entirely.
	Cached int
	// Cost accumulates execution statistics of the validations run.
	Cost exec.ExecStats

	// resolved logs the candidates in the order they were confirmed or
	// pruned.
	resolved []int
}

// NewSession creates a fresh session over a filter set.
func NewSession(set *Set) *Session {
	return &Session{
		Set:      set,
		Outcomes: make([]Outcome, set.NumFilters()),
		Status:   make([]CandidateStatus, set.NumCandidates()),
	}
}

// Determined reports whether filter i already has a known outcome.
func (s *Session) Determined(i int) bool { return s.Outcomes[i] != Unknown }

// UnresolvedCandidates returns the number of candidates still unresolved.
func (s *Session) UnresolvedCandidates() int { return len(s.Status) - len(s.resolved) }

// Resolutions lists the candidates resolved so far, in the order their
// status changed. The scheduler reads the tail it has not seen yet to keep
// its per-filter counters current; callers must not modify the slice.
func (s *Session) Resolutions() []int { return s.resolved }

// RecordExecution applies the result of directly validating filter i.
func (s *Session) RecordExecution(i int, res ValidationResult) {
	s.Executed++
	s.Cost.Add(res.Cost)
	if res.Passed {
		s.apply(i, Passed)
	} else {
		s.apply(i, Failed)
	}
}

// RecordCached applies an outcome served from a cross-round outcome cache:
// the filter is resolved (with full implication propagation) without
// counting as an executed validation, because no executor work happened.
func (s *Session) RecordCached(i int, passed bool) {
	s.Cached++
	if passed {
		s.apply(i, Passed)
	} else {
		s.apply(i, Failed)
	}
}

// apply sets the outcome of filter i and propagates implications.
func (s *Session) apply(i int, o Outcome) {
	if s.Outcomes[i] == o {
		return
	}
	if s.Outcomes[i] != Unknown {
		// Conflicting information indicates a bug in propagation or the
		// validator; keep the first outcome.
		return
	}
	s.Outcomes[i] = o
	switch o {
	case Failed:
		// Every super-filter fails too.
		for _, p := range s.Set.Parents(i) {
			if s.Outcomes[p] == Unknown {
				s.Implied++
				s.apply(p, Failed)
			}
		}
		// Every candidate containing the filter is pruned.
		for _, ci := range s.Set.CandidatesOf(i) {
			if s.Status[ci] == CandidateUnresolved {
				s.Status[ci] = CandidatePruned
				s.resolved = append(s.resolved, ci)
			}
		}
	case Passed:
		// Every sub-filter passes too.
		for _, c := range s.Set.Children(i) {
			if s.Outcomes[c] == Unknown {
				s.Implied++
				s.apply(c, Passed)
			}
		}
		// Candidates whose top filter passed are confirmed.
		for _, ci := range s.Set.CandidatesOf(i) {
			if s.Status[ci] == CandidateUnresolved && s.Set.Top[ci] == i {
				s.Status[ci] = CandidateConfirmed
				s.resolved = append(s.resolved, ci)
			}
		}
	}
}

// Confirmed returns the indexes of confirmed candidates.
func (s *Session) Confirmed() []int {
	var out []int
	for ci, st := range s.Status {
		if st == CandidateConfirmed {
			out = append(out, ci)
		}
	}
	return out
}

// Pruned returns the indexes of pruned candidates.
func (s *Session) Pruned() []int {
	var out []int
	for ci, st := range s.Status {
		if st == CandidatePruned {
			out = append(out, ci)
		}
	}
	return out
}
