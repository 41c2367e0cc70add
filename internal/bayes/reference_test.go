package bayes

import (
	"math"
	"strings"

	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// refModel is the estimator this package shipped before the compact model:
// per-row value copies, map[string][]int postings, map[int]struct{} match
// sets and a [][2]int pair list walked once per edge. It is kept verbatim as
// the oracle of the differential tests — every probability the compact model
// returns must be == to the one this code computes. There are two
// deliberate departures. The order in which trainJoin enumerates joined
// pairs: the old code ranged over a Go map, so joins above the sampling
// budget drew a different sample on every Train; the oracle enumerates in
// from-row order, which is the order the compact model defines. And a match
// set is the rows whose value satisfies the expression, evaluated on every
// row: the old code answered a keyword or "= const" from the postings of the
// parsed constant, which disagreed with the expression on a padded keyword,
// on "NaN" over text and on integers beyond 2^53.
type refModel struct {
	relations map[string]*refRelation
	joins     map[string]*refJoin
}

type refRelation struct {
	rows    int
	columns map[string]*refColumn // lower(column)
}

type refColumn struct {
	postings map[string][]int
	values   []value.Value
}

type refJoin struct {
	prob       float64
	totalPairs int
	pairs      [][2]int
}

func refKey(fk schema.ForeignKey) string {
	a := strings.ToLower(fk.From.String())
	b := strings.ToLower(fk.To.String())
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

func trainReference(db *mem.Database) *refModel {
	m := &refModel{relations: make(map[string]*refRelation), joins: make(map[string]*refJoin)}
	sch := db.Schema()
	for _, t := range sch.Tables() {
		rows, _ := db.SampleRows(t.Name, 0)
		rm := &refRelation{rows: len(rows), columns: make(map[string]*refColumn)}
		for ci, col := range t.Columns {
			cm := &refColumn{postings: make(map[string][]int)}
			for row, tuple := range rows {
				v := tuple[ci]
				cm.values = append(cm.values, v)
				if !v.IsNull() {
					cm.postings[v.Key()] = append(cm.postings[v.Key()], row)
				}
			}
			rm.columns[strings.ToLower(col.Name)] = cm
		}
		m.relations[strings.ToLower(t.Name)] = rm
	}
	for _, fk := range sch.ForeignKeys() {
		m.joins[refKey(fk)] = m.trainJoin(fk)
	}
	return m
}

func (m *refModel) column(ref schema.ColumnRef) *refColumn {
	rm := m.relations[strings.ToLower(ref.Table)]
	if rm == nil {
		return nil
	}
	return rm.columns[strings.ToLower(ref.Column)]
}

func (m *refModel) trainJoin(fk schema.ForeignKey) *refJoin {
	js := &refJoin{}
	fromRel, toRel := m.relations[strings.ToLower(fk.From.Table)], m.relations[strings.ToLower(fk.To.Table)]
	if fromRel == nil || toRel == nil || fromRel.rows == 0 || toRel.rows == 0 {
		return js
	}
	fromCM, toCM := m.column(fk.From), m.column(fk.To)
	if fromCM == nil || toCM == nil {
		return js
	}
	for fr, v := range fromCM.values {
		if v.IsNull() {
			continue
		}
		for _, tr := range toCM.postings[v.Key()] {
			js.totalPairs++
			js.pairs = append(js.pairs, [2]int{fr, tr})
		}
	}
	if len(js.pairs) > maxJoinPairSample {
		stride := (len(js.pairs) + maxJoinPairSample - 1) / maxJoinPairSample
		sampled := make([][2]int, 0, maxJoinPairSample)
		for i := 0; i < len(js.pairs); i += stride {
			sampled = append(sampled, js.pairs[i])
		}
		js.pairs = sampled
	}
	js.prob = float64(js.totalPairs) / (float64(fromRel.rows) * float64(toRel.rows))
	return js
}

func (m *refModel) relationSize(table string) int {
	if rm := m.relations[strings.ToLower(table)]; rm != nil {
		return rm.rows
	}
	return 0
}

func (m *refModel) ExpectedMatches(tables []string, edges []schema.ForeignKey, constraints []ColumnConstraint) float64 {
	byTable := make(map[string][]ColumnConstraint)
	for _, c := range constraints {
		key := strings.ToLower(c.Ref.Table)
		byTable[key] = append(byTable[key], c)
	}
	matchSets := make(map[string]map[int]struct{}, len(tables))
	probs := make(map[string]float64, len(tables))
	e := 1.0
	for _, t := range tables {
		rows := m.relationSize(t)
		if rows == 0 {
			return 0
		}
		e *= float64(rows)
		key := strings.ToLower(t)
		cons := byTable[key]
		if len(cons) == 0 {
			matchSets[key] = nil // nil = all rows match
			probs[key] = 1
			continue
		}
		set, ok := m.relationMatchRows(t, cons)
		if !ok {
			probs[key] = 0.01
			matchSets[key] = nil
			e *= 0.01
			continue
		}
		p := float64(len(set)) / float64(rows)
		matchSets[key] = set
		probs[key] = p
		if p == 0 {
			return 0
		}
		e *= p
	}
	// The old code ranged over byTable here; constraint order is the same
	// product for one outside table and the only deterministic one for more.
	for _, c := range constraints {
		if _, inFilter := probs[strings.ToLower(c.Ref.Table)]; !inFilter {
			e *= unknownFactor
		}
	}
	for _, fk := range edges {
		js := m.joins[refKey(fk)]
		if js == nil || js.totalPairs == 0 {
			return 0
		}
		e *= js.prob
		fromKey := strings.ToLower(fk.From.Table)
		toKey := strings.ToLower(fk.To.Table)
		pFrom, okFrom := probs[fromKey]
		pTo, okTo := probs[toKey]
		if !okFrom || !okTo {
			continue
		}
		pairFrac := js.conditionalPairProbability(matchSets[fromKey], matchSets[toKey])
		denom := pFrom * pTo
		if denom <= 0 {
			return 0
		}
		e *= pairFrac / denom
	}
	return e
}

func (m *refModel) FailureProbability(tables []string, edges []schema.ForeignKey, constraints []ColumnConstraint) float64 {
	return math.Exp(-m.ExpectedMatches(tables, edges, constraints))
}

func (js *refJoin) conditionalPairProbability(fromSet, toSet map[int]struct{}) float64 {
	if len(js.pairs) == 0 {
		return 0
	}
	if fromSet == nil && toSet == nil {
		return 1
	}
	hits := 0
	for _, p := range js.pairs {
		if fromSet != nil {
			if _, ok := fromSet[p[0]]; !ok {
				continue
			}
		}
		if toSet != nil {
			if _, ok := toSet[p[1]]; !ok {
				continue
			}
		}
		hits++
	}
	return float64(hits) / float64(len(js.pairs))
}

func (m *refModel) relationMatchRows(table string, cons []ColumnConstraint) (map[int]struct{}, bool) {
	rm := m.relations[strings.ToLower(table)]
	if rm == nil {
		return nil, false
	}
	var acc map[int]struct{}
	for _, c := range cons {
		cm := rm.columns[strings.ToLower(c.Ref.Column)]
		if cm == nil {
			return nil, false
		}
		rows := cm.rowsSatisfying(c.Expr)
		if acc == nil {
			acc = rows
			continue
		}
		for r := range acc {
			if _, keep := rows[r]; !keep {
				delete(acc, r)
			}
		}
	}
	if acc == nil {
		acc = make(map[int]struct{})
	}
	return acc, true
}

func (c *refColumn) rowsSatisfying(e lang.ValueExpr) map[int]struct{} {
	if e == nil {
		out := make(map[int]struct{}, len(c.values))
		for i := range c.values {
			out[i] = struct{}{}
		}
		return out
	}
	out := make(map[int]struct{})
	for row, v := range c.values {
		if e.Eval(v) {
			out[row] = struct{}{}
		}
	}
	return out
}

func refToSet(rows []int) map[int]struct{} {
	out := make(map[int]struct{}, len(rows))
	for _, r := range rows {
		out[r] = struct{}{}
	}
	return out
}

func (m *refModel) ExactMatchingRows(table string, cons []ColumnConstraint) (int, bool) {
	rm := m.relations[strings.ToLower(table)]
	if rm == nil {
		return 0, false
	}
	if len(cons) == 0 {
		return rm.rows, true
	}
	for _, c := range cons {
		if !strings.EqualFold(c.Ref.Table, table) {
			return 0, false
		}
	}
	set, ok := m.relationMatchRows(table, cons)
	if !ok {
		return 0, false
	}
	return len(set), true
}
