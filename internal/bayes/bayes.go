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
	"strings"

	"prism/internal/exec"
	"prism/internal/par"
	"prism/internal/schema"
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

// columnModel is the per-column distribution: the column's key dictionary —
// its distinct values with the rows holding each one, built once by the
// database and shared with the executor — so the per-relation model can
// answer single-relation selectivities exactly, capturing intra-row
// correlation (the "Bayesian model in a single relation" of §2.3).
type columnModel struct {
	ref schema.ColumnRef
	*exec.ColumnIndex
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
	prob       float64  // P(J = 1) over random pairs
	totalPairs int      // true number of joined pairs
	sampled    int      // pairs kept, at most maxJoinPairSample
	byFrom     exec.CSR // from-row -> to-rows of its sampled pairs, ascending
	byTo       exec.CSR // to-row -> from-rows of its sampled pairs, ascending
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

// Train fits the model to the current contents of the source database: the
// column distributions are the source's own key dictionaries, the join
// indicators are computed from them. This corresponds to the paper's
// "Bayesian models trained a priori for the source database".
func Train(db exec.Source) *Model {
	m := &Model{
		relations: make(map[string]*relationModel),
		joins:     make(map[schema.ForeignKey]*joinStats),
	}
	m.sets = m
	sch := db.Schema()
	for _, t := range sch.Tables() {
		rm := &relationModel{rows: db.NumRows(t.Name), columns: make(map[string]*columnModel)}
		m.relations[strings.ToLower(t.Name)] = rm
		m.relations[t.Name] = rm
		for _, col := range t.Columns {
			ref := schema.ColumnRef{Table: t.Name, Column: col.Name}
			index, err := db.ColumnIndex(ref)
			if err != nil {
				panic("bayes: " + err.Error()) // the database lacks a column of its own schema
			}
			cm := &columnModel{ref, index}
			m.columns = append(m.columns, cm)
			rm.columns[strings.ToLower(col.Name)] = cm
			rm.columns[col.Name] = cm
		}
	}
	// For FK edge R.a -> S.b the join indicator J_RS is 1 for an (r, s) pair
	// when r.a = s.b. Every join is independent of every other: they are
	// trained over the cores there are and installed in schema order.
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
	if from.NumRows() == 0 || to.NumRows() == 0 {
		return js
	}
	// partner[r] is the to-column value id that from-row r joins, -1 for none.
	partner := make([]int32, from.NumRows())
	for r := range partner {
		partner[r] = -1
	}
	for id := range from.Vals {
		if toID, ok := to.JoinID(from.ColumnIndex, int32(id)); ok {
			rows := from.Post.At(int32(id))
			js.totalPairs += len(rows) * len(to.Post.At(toID))
			for _, r := range rows {
				partner[r] = toID
			}
		}
	}
	js.prob = float64(js.totalPairs) / (float64(from.NumRows()) * float64(to.NumRows()))
	stride := max(1, (js.totalPairs+maxJoinPairSample-1)/maxJoinPairSample)
	js.sampled = (js.totalPairs + stride - 1) / stride
	fromRows, toRows := make([]int32, 0, js.sampled), make([]int32, 0, js.sampled)
	seen := 0 // pairs enumerated so far; pair i is kept when i%stride == 0
	for r, toID := range partner {
		if toID < 0 {
			continue
		}
		joined := to.Post.At(toID)
		for k := (stride - seen%stride) % stride; k < len(joined); k += stride {
			fromRows = append(fromRows, int32(r))
			toRows = append(toRows, joined[k])
		}
		seen += len(joined)
	}
	js.byFrom = exec.GroupCSR(from.NumRows(), fromRows, toRows)
	js.byTo = exec.GroupCSR(to.NumRows(), toRows, fromRows)
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

// ColumnIndex returns the key dictionary the model holds for a column, nil
// when it lacks the column: the index a round's selections of the column's
// cells are made from.
func (m *Model) ColumnIndex(ref schema.ColumnRef) *exec.ColumnIndex {
	if cm := m.column(ref); cm != nil {
		return cm.ColumnIndex
	}
	return nil
}
