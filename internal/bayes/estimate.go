package bayes

import (
	"math"
	"slices"
	"strings"

	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/rowset"
	"prism/internal/schema"
)

// ColumnConstraint binds a value constraint to a source column; the
// estimator multiplies the corresponding selectivities into the expected
// match count.
type ColumnConstraint struct {
	Ref  schema.ColumnRef
	Expr lang.ValueExpr
	// Sample and Target locate Expr in its specification. The model ignores
	// them; a Sets that remembers match sets finds the cell by them, because
	// an expression tree cannot be hashed.
	Sample, Target int
}

// Sets are the three quantities an estimate reads off the model's storage,
// each a pure function of its arguments. A set of rows of one relation is
// an exec.Selection, which the estimate never writes; nil is every row. The
// filters of a round ask for the same few over and over: Sharing takes a
// Sets that remembers the answers.
type Sets interface {
	// MatchRows returns the rows of c.Ref's relation whose value satisfies
	// c.Expr (nil: every row); known is false when the model lacks the column.
	MatchRows(c ColumnConstraint) (rows *exec.Selection, known bool)
	// Intersect returns the rows in both sets of one relation.
	Intersect(a, b *exec.Selection) *exec.Selection
	// PairHits counts the sampled joined pairs of a trained edge with their
	// from-row in from and their to-row in to; a nil set is every row.
	PairHits(fk schema.ForeignKey, from, to *exec.Selection) int
}

// Sharing returns a view of the model that estimates through s: the same
// estimates, as long as s answers as the model does.
func (m *Model) Sharing(s Sets) *Model {
	view := *m
	view.sets = s
	return &view
}

// ExpectedMatches estimates the number of tuples in the join of tables
// (along edges) that satisfy all column constraints. It uses the
// probabilistic-relational-model construction of Getoor et al.: the
// per-relation models give the (exact, correlation-aware) fraction of each
// relation's rows satisfying its constraints, the join-indicator statistics
// give both P(J=1) and the conditional probability that a joined pair
// satisfies the constraints of its two endpoints, and a tree factorisation
// combines them:
//
//	E = ∏ |R_i| · ∏_e P(J_e=1) · ∏_e P(constr_from, constr_to | J_e=1) / ∏_i p_i^(deg_i − 1)
//
// where p_i is the per-relation constraint probability and deg_i the number
// of filter edges incident to relation i.
func (m *Model) ExpectedMatches(tables []string, edges []schema.ForeignKey, constraints []ColumnConstraint) float64 {
	parts := make([]tablePart, 0, 8)
	e := 1.0
	for _, t := range tables {
		rm := m.relation(t)
		if rm == nil || rm.rows == 0 {
			return 0
		}
		e *= float64(rm.rows)
		part := tablePart{table: t, p: 1}
		set, known := m.relationRows(t, constraints)
		switch {
		case !known:
			part.p = unknownFactor
			e *= part.p
		case set != nil:
			part.set = set
			part.p = float64(len(set.IDs)) / float64(rm.rows)
			if part.p == 0 {
				return 0
			}
			e *= part.p
		}
		parts = append(parts, part)
	}
	// Defensive: filters are minted with their own tables' columns only.
	for _, c := range constraints {
		if findPart(parts, c.Ref.Table) < 0 {
			e *= unknownFactor
		}
	}
	// Edge factors: P(J=1) and the conditional pair probability, which
	// replaces the product of the two endpoint probabilities (hence the
	// division — equivalently, multiply by the correlation lift).
	for _, fk := range edges {
		js := m.joinFor(fk)
		if js == nil || js.totalPairs == 0 {
			return 0
		}
		e *= js.prob
		fi, ti := findPart(parts, fk.From.Table), findPart(parts, fk.To.Table)
		if fi < 0 || ti < 0 {
			continue
		}
		from, to := parts[fi], parts[ti]
		pairFrac := float64(m.sets.PairHits(fk, from.set, to.set)) / float64(js.sampled)
		denom := from.p * to.p
		if denom <= 0 {
			return 0
		}
		e *= pairFrac / denom
	}
	return e
}

// tablePart is one relation of an estimate: match set (nil: all rows) and p_i.
type tablePart struct {
	table string
	set   *exec.Selection
	p     float64
}

// findPart returns the index of table's part, -1 when the filter lacks it.
func findPart(parts []tablePart, table string) int {
	return slices.IndexFunc(parts, func(p tablePart) bool { return strings.EqualFold(p.table, table) })
}

// relationRows returns the rows of a relation satisfying every constraint
// that names it (nil: all rows); known is false when one names a column the
// model lacks.
func (m *Model) relationRows(table string, constraints []ColumnConstraint) (set *exec.Selection, known bool) {
	for _, c := range constraints {
		if !strings.EqualFold(c.Ref.Table, table) {
			continue
		}
		rows, known := m.sets.MatchRows(c)
		switch {
		case !known:
			return nil, false
		case set == nil:
			set = rows
		case rows != nil:
			set = m.sets.Intersect(set, rows)
		}
	}
	return set, true
}

// MatchRows implements Sets: the rows the column's key dictionary selects
// for the constraint (exec.ColumnIndex.Select, the executor's selection
// too) — a pure numeric range the postings its bounds enclose in the sorted
// views, any other expression evaluated once per distinct value, variant
// and NULL.
func (m *Model) MatchRows(c ColumnConstraint) (*exec.Selection, bool) {
	cm := m.column(c.Ref)
	if cm == nil || c.Expr == nil {
		return nil, cm != nil
	}
	p := exec.ColumnPredicate{Ref: c.Ref, Pred: c.Expr.Eval}
	if b, exact := lang.ExactRangeBounds(c.Expr); exact {
		p.Bounds, p.BoundsExact = &exec.NumericBounds{Lo: b.Lo, Hi: b.Hi, HasLo: true, HasHi: true}, true
	}
	rows := rowset.New(cm.NumRows())
	cm.Select(&p, rows, nil)
	return exec.NewSelection(rows), true
}

// Intersect implements Sets.
func (m *Model) Intersect(a, b *exec.Selection) *exec.Selection {
	rows := rowset.New(a.Rows.Len())
	rows.Or(a.Rows)
	rows.And(b.Rows)
	return exec.NewSelection(rows)
}

// PairHits implements Sets: it walks the rows of the smaller constrained set
// and tests each one's sampled partners against the other set.
func (m *Model) PairHits(fk schema.ForeignKey, from, to *exec.Selection) int {
	js := m.joinFor(fk)
	walk, partners, other := from, js.byFrom, to
	if from == nil || (to != nil && len(to.IDs) < len(from.IDs)) {
		walk, partners, other = to, js.byTo, from
	}
	if walk == nil {
		return js.sampled
	}
	n := 0
	for _, r := range walk.IDs {
		for _, p := range partners.At(r) {
			if other == nil || other.Rows.Contains(p) {
				n++
			}
		}
	}
	return n
}

// FailureProbability estimates the probability that the join produces no
// tuple satisfying the constraints. Modelling tuple matches as independent
// rare events (Poisson), P(fail) = exp(-E[matches]).
func (m *Model) FailureProbability(tables []string, edges []schema.ForeignKey, constraints []ColumnConstraint) float64 {
	return math.Exp(-m.ExpectedMatches(tables, edges, constraints))
}

// ExactMatchingRows returns the exact number of rows of a single relation
// satisfying the conjunction of the given constraints (all of which must
// reference columns of that relation). Unlike the naive-Bayes product it
// accounts for correlations between columns of the same row exactly — the
// role the paper's per-relation Bayesian models play. ok is false when the
// relation or a column is unknown, or a constraint references another table.
func (m *Model) ExactMatchingRows(table string, cons []ColumnConstraint) (int, bool) {
	rm := m.relation(table)
	if rm == nil {
		return 0, false
	}
	for _, c := range cons {
		if !strings.EqualFold(c.Ref.Table, table) {
			return 0, false
		}
	}
	set, known := m.relationRows(table, cons)
	if !known {
		return 0, false
	}
	if set == nil {
		return rm.rows, true
	}
	return len(set.IDs), true
}
