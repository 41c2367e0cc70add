package sched

import (
	"slices"
	"strings"
	"testing"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/lang"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// TestEstimatorMatchSetIsTheSelection: the rows a Bayes estimator counts for
// a cell on a source column are the rows exec.ColumnIndex.Select keeps with
// the cell's own predicate, evaluated on every value. Every value stored in
// every column of the bundled databases and of difftest's quirks and ranges
// — variants included — is put to its column as a keyword and as "= v", each
// spelled as stored, upper-cased, padded with blanks and with ".0" appended:
// the shapes on which answering an equality from the postings of the parsed
// constant went wrong (" Lakers " matched nothing, "NaN" text on a text
// column, integers beyond 2^53 only themselves).
func TestEstimatorMatchSetIsTheSelection(t *testing.T) {
	dbs := difftest.Databases(t)
	dbs["quirks"], dbs["ranges"] = difftest.Quirks(t), difftest.Ranges(t)
	dbs["quirks"].Analyze()
	dbs["ranges"].Analyze()
	for name, db := range dbs {
		model := bayes.Train(db)
		pairs := 0
		for _, tbl := range db.Schema().Tables() {
			for _, col := range tbl.Columns {
				ref := schema.ColumnRef{Table: tbl.Name, Column: col.Name}
				x := model.ColumnIndex(ref)
				var cells []lang.ValueExpr
				for _, v := range append(slices.Clone(x.Vals), x.VariantVals...) {
					s := v.String()
					for _, spelling := range []string{s, strings.ToUpper(s), " " + s + " ", s + ".0"} {
						cells = append(cells, lang.Keyword{Word: spelling}, lang.Compare{Op: lang.OpEq, Const: value.Parse(spelling)})
					}
				}
				spec := &constraint.Spec{NumColumns: 1}
				for _, cell := range cells {
					spec.Samples = append(spec.Samples, constraint.SampleConstraint{Cells: []lang.ValueExpr{cell}})
				}
				est := &BayesEstimator{Model: model, Spec: spec}
				est.use(filter.NewCells(spec))
				for si, cell := range cells {
					pairs++
					got, known := est.memo.MatchRows(bayes.ColumnConstraint{Ref: ref, Expr: cell, Sample: si})
					want := rowset.New(x.NumRows())
					x.Select(&exec.ColumnPredicate{Pred: cell.Eval}, want, nil)
					if !known || !slices.Equal(got.IDs, want.AppendTo(nil)) {
						t.Errorf("%s %s %s: the estimator counts rows %v, the predicate keeps %v", name, ref, cell, got.IDs, want.AppendTo(nil))
					}
				}
			}
		}
		t.Logf("%s: %d (cell, column) pairs", name, pairs)
	}
}
