// Package bayes implements the probabilistic models Prism trains a priori
// over the source database to estimate the failure probability of filters
// (§2.3): per-relation Bayesian models over column value distributions,
// combined across relations with the join-indicator construction of Getoor,
// Taskar and Koller (SIGMOD 2001).
//
// The estimator answers: given a filter (a sub-join-tree with value
// constraints on some of its projected columns), how many joined tuples are
// expected to satisfy the constraints, and hence how likely is the filter
// to fail (produce none)? The filter scheduler only consumes the relative
// ordering of these probabilities, so modest estimation error is tolerable;
// what matters is that constraints on rare values and long join paths are
// recognised as more likely to fail.
package bayes

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"prism/internal/mem"
	"prism/internal/par"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

const (
	// maxJoinPairSample caps the joined row pairs sampled per foreign-key
	// edge; larger joins are subsampled uniformly so the model stays compact.
	maxJoinPairSample = 100_000
	// unknownFactor is the pessimistic probability an estimate gives a
	// constraint the model cannot evaluate: one on a column it lacks, or on
	// a table outside the filter.
	unknownFactor = 0.01
)

// csr is a sequence of int32 lists stored flat, list i at
// items[off[i]:off[i+1]]: nothing in it for the garbage collector to trace.
type csr struct{ off, items []int32 }

func (c csr) at(i int32) []int32 { return c.items[c.off[i]:c.off[i+1]] }

// groupCSR groups vals (nil: the positions 0, 1, 2, …) into n lists by keys,
// each in input order, with a counting sort: exact-size allocations only.
func groupCSR(n int, keys, vals []int32) csr {
	c := csr{off: make([]int32, n+1), items: make([]int32, len(keys))}
	for _, k := range keys {
		c.off[k+1]++
	}
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	next := append([]int32(nil), c.off[:n]...)
	for i, k := range keys {
		v := int32(i)
		if vals != nil {
			v = vals[i]
		}
		c.items[next[k]] = v
		next[k]++
	}
	return c
}

// columnModel is the per-column distribution: a dictionary of the column's
// distinct values with the rows holding each one (so the per-relation model
// can answer single-relation selectivities exactly, capturing intra-row
// correlation — the "Bayesian model in a single relation" of §2.3).
type columnModel struct {
	ref   schema.ColumnRef
	total int
	ids   map[string]int32 // value.Key() -> value id
	vals  []value.Value    // value id -> the first value seen with that key
	// post.at(id) are the rows holding value id, ascending; the last list,
	// post.at(len(vals)), are the NULL rows.
	post csr
	// variantRows hold a value that shares its key with vals[id] without
	// being identical to it ("Lake"/"lake", "3"/"3.0"): Eval need not agree
	// across those, so these rows are evaluated one by one (variantVals).
	variantRows []int32
	variantVals []value.Value
	// byView lists the value ids whose value has a numeric view
	// (Value.Float) that is not NaN, ascending by it; views[i] is the view of
	// vals[byView[i]]. A pure numeric range holds for exactly the values with
	// a view inside it (lang.ExactRangeBounds), so its match set is the
	// postings between two binary searches. The views are taken from the
	// values themselves, whatever their kind: numeric-looking text has one.
	byView []int32
	views  []float64
}

// trainColumn builds the model of column ci of rel.
func trainColumn(ref schema.ColumnRef, rel *mem.Relation, ci int) *columnModel {
	c := &columnModel{ref: ref, total: len(rel.Rows), ids: make(map[string]int32)}
	rowID := make([]int32, len(rel.Rows)) // row -> value id, the NULL list's id for NULL
	for row, tuple := range rel.Rows {
		v := tuple[ci]
		if v.IsNull() {
			rowID[row] = -1
			continue
		}
		key := v.Key()
		id, seen := c.ids[key]
		if !seen {
			id = int32(len(c.vals))
			c.ids[key] = id
			c.vals = append(c.vals, v)
		} else if !v.EqualStrict(c.vals[id]) {
			c.variantRows = append(c.variantRows, int32(row))
			c.variantVals = append(c.variantVals, v)
		}
		rowID[row] = id
	}
	for row, id := range rowID {
		if id < 0 {
			rowID[row] = int32(len(c.vals))
		}
	}
	c.post = groupCSR(len(c.vals)+1, rowID, nil)
	c.sortViews()
	return c
}

// sortViews fills byView and views. The sort runs on a scratch slice of
// pairs; the two slices the model keeps are sized exactly.
func (c *columnModel) sortViews() {
	type viewed struct {
		view float64
		id   int32
	}
	var pairs []viewed
	for id, v := range c.vals {
		if f, ok := v.Float(); ok && !math.IsNaN(f) {
			pairs = append(pairs, viewed{f, int32(id)})
		}
	}
	if len(pairs) == 0 {
		return
	}
	slices.SortFunc(pairs, func(a, b viewed) int { return cmp.Compare(a.view, b.view) })
	c.byView, c.views = make([]int32, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		c.byView[i], c.views[i] = p.id, p.view
	}
}

// addRangeRows adds the postings of the values whose numeric view lies in
// [lo, hi]; an interval with lo > hi holds nothing.
func (c *columnModel) addRangeRows(bits *rowset.Bitmap, lo, hi float64) {
	from := sort.SearchFloat64s(c.views, lo)
	to := sort.Search(len(c.views), func(i int) bool { return c.views[i] > hi })
	for i := from; i < to; i++ {
		bits.AddSorted(c.post.at(c.byView[i]))
	}
}

func (c *columnModel) nullRows() []int32 { return c.post.at(int32(len(c.vals))) }

// rowsOf returns the ascending rows whose value has the key, if any.
func (c *columnModel) rowsOf(key string) []int32 {
	id, ok := c.ids[key]
	if !ok {
		return nil
	}
	return c.post.at(id)
}

// relationModel is the per-relation Bayesian model: the column distributions
// plus the relation size. Columns are combined under the naive-Bayes
// independence assumption.
type relationModel struct {
	rows    int
	columns map[string]*columnModel // column name, original case AND lower-cased
}

// joinStats are the trained join-indicator statistics of one foreign-key
// edge: the probability that a random (from-row, to-row) pair joins, and a
// (possibly subsampled) set of joined row pairs — the empirical distribution
// Getoor et al.'s construction conditions the per-relation models on — as
// adjacency lists both ways, so a set of rows reaches its pairs from either end.
type joinStats struct {
	prob       float64 // P(J = 1) over random pairs
	totalPairs int     // true number of joined pairs
	sampled    int     // pairs kept, at most maxJoinPairSample
	byFrom     csr     // from-row -> to-rows of its sampled pairs, ascending
	byTo       csr     // to-row -> from-rows of its sampled pairs, ascending
}

// Model is the trained database-wide model: one relation model per table and
// the join-indicator statistics of every foreign key. A trained Model is
// immutable and safe for concurrent use.
type Model struct {
	relations map[string]*relationModel // keyed by table name, original case AND lower-cased
	columns   []*columnModel            // every column once, in schema order
	// joins is keyed by the schema's own foreign-key structs, which is how
	// graphx spells every filter edge: the per-edge lookup builds no key.
	joins map[schema.ForeignKey]*joinStats
	sets  Sets // the model itself, unless this is a Sharing view
}

// Train fits the model to the current contents of the database. The
// database must have been analyzed (for stats); Train performs its own
// scan for value postings and join indicators. This corresponds to the paper's
// "Bayesian models trained a priori for the source database".
func Train(db *mem.Database) *Model {
	m := &Model{
		relations: make(map[string]*relationModel),
		joins:     make(map[schema.ForeignKey]*joinStats),
	}
	m.sets = m
	sch := db.Schema()
	// Every column model is independent of every other, and so is every join
	// once the column models exist: both are trained over the cores there are
	// and installed in schema order afterwards.
	type columnJob struct {
		ref schema.ColumnRef
		rel *mem.Relation
		ci  int
		rm  *relationModel
	}
	var jobs []columnJob
	for _, t := range sch.Tables() {
		rel, _ := db.Relation(t.Name)
		rm := &relationModel{rows: rel.NumRows(), columns: make(map[string]*columnModel)}
		m.relations[strings.ToLower(t.Name)] = rm
		m.relations[t.Name] = rm
		for ci, col := range t.Columns {
			jobs = append(jobs, columnJob{schema.ColumnRef{Table: t.Name, Column: col.Name}, rel, ci, rm})
		}
	}
	m.columns = make([]*columnModel, len(jobs))
	par.Do(len(jobs), func(i int) {
		m.columns[i] = trainColumn(jobs[i].ref, jobs[i].rel, jobs[i].ci)
	})
	for i, cm := range m.columns {
		jobs[i].rm.columns[strings.ToLower(cm.ref.Column)] = cm
		jobs[i].rm.columns[cm.ref.Column] = cm
	}
	// For FK edge R.a -> S.b the join indicator J_RS is 1 for an (r, s) pair
	// when r.a = s.b.
	fks := sch.ForeignKeys()
	joins := make([]*joinStats, len(fks))
	par.Do(len(fks), func(i int) {
		joins[i] = trainJoin(m.column(fks[i].From), m.column(fks[i].To))
	})
	for i, fk := range fks {
		m.joins[fk] = joins[i]
	}
	return m
}

// joinFor resolves the statistics of an edge: by the struct itself, else by
// the schema's spelling of its two columns.
func (m *Model) joinFor(fk schema.ForeignKey) *joinStats {
	if js, ok := m.joins[fk]; ok {
		return js
	}
	from, to := m.column(fk.From), m.column(fk.To)
	if from == nil || to == nil {
		return nil
	}
	return m.joins[schema.ForeignKey{From: from.ref, To: to.ref}]
}

// trainJoin computes the join-indicator statistics of one foreign key.
// Joined pairs are enumerated in from-row order, to-rows ascending within a
// from-row, and a join above the sampling budget keeps every stride-th pair
// of that order: the sample is a function of the data alone.
func trainJoin(from, to *columnModel) *joinStats {
	js := &joinStats{}
	if from.total == 0 || to.total == 0 {
		return js
	}
	// partner[r] is the to-column value id that from-row r joins, -1 for none.
	partner := make([]int32, from.total)
	for r := range partner {
		partner[r] = -1
	}
	for id, v := range from.vals {
		if toID, ok := to.ids[v.Key()]; ok {
			rows := from.post.at(int32(id))
			js.totalPairs += len(rows) * len(to.post.at(toID))
			for _, r := range rows {
				partner[r] = toID
			}
		}
	}
	js.prob = float64(js.totalPairs) / (float64(from.total) * float64(to.total))
	stride := max(1, (js.totalPairs+maxJoinPairSample-1)/maxJoinPairSample)
	js.sampled = (js.totalPairs + stride - 1) / stride
	fromRows, toRows := make([]int32, 0, js.sampled), make([]int32, 0, js.sampled)
	seen := 0 // pairs enumerated so far; pair i is kept when i%stride == 0
	for r, toID := range partner {
		if toID < 0 {
			continue
		}
		joined := to.post.at(toID)
		for k := (stride - seen%stride) % stride; k < len(joined); k += stride {
			fromRows = append(fromRows, int32(r))
			toRows = append(toRows, joined[k])
		}
		seen += len(joined)
	}
	js.byFrom = groupCSR(from.total, fromRows, toRows)
	js.byTo = groupCSR(to.total, toRows, fromRows)
	return js
}

func (m *Model) relation(table string) *relationModel {
	// Exact-case hit first: schema-cased names (the common case on the
	// estimator's hot path) then skip the allocating lower-case fold.
	if rm, ok := m.relations[table]; ok {
		return rm
	}
	return m.relations[strings.ToLower(table)]
}

func (rm *relationModel) column(name string) *columnModel {
	if cm, ok := rm.columns[name]; ok {
		return cm
	}
	return rm.columns[strings.ToLower(name)]
}

func (m *Model) column(ref schema.ColumnRef) *columnModel {
	rm := m.relation(ref.Table)
	if rm == nil {
		return nil
	}
	return rm.column(ref.Column)
}

// RelationSize returns the trained row count of a table (0 when unknown).
func (m *Model) RelationSize(table string) int {
	if rm := m.relation(table); rm != nil {
		return rm.rows
	}
	return 0
}

// JoinProbability returns the trained join-indicator probability for a
// foreign key edge (0 when unknown).
func (m *Model) JoinProbability(fk schema.ForeignKey) float64 {
	if js := m.joinFor(fk); js != nil {
		return js.prob
	}
	return 0
}

// ColumnSummary is a compact description of one trained column model.
type ColumnSummary struct {
	Ref      schema.ColumnRef
	Rows     int
	NonNull  int
	Distinct int
	TopValue string
	TopCount int
}

// Summaries returns per-column summaries of the trained model, sorted by
// column reference.
func (m *Model) Summaries() []ColumnSummary {
	out := make([]ColumnSummary, 0, len(m.columns))
	for _, cm := range m.columns {
		s := ColumnSummary{
			Ref:      cm.ref,
			Rows:     cm.total,
			NonNull:  cm.total - len(cm.nullRows()),
			Distinct: len(cm.vals),
		}
		for id, v := range cm.vals {
			n := len(cm.post.at(int32(id)))
			if key := v.Key(); n > s.TopCount || (n == s.TopCount && key < s.TopValue) {
				s.TopCount, s.TopValue = n, key
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.Less(out[j].Ref) })
	return out
}
