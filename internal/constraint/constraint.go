// Package constraint assembles the user's multiresolution constraints into
// the target-schema specification Prism's query discovery consumes: the
// Configuration (number of target columns, number of sample constraints),
// the row-level result constraints, and the column-level metadata
// constraints of the Description section (§2.2).
package constraint

import (
	"fmt"
	"strings"

	"prism/internal/lang"
	"prism/internal/schema"
	"prism/internal/value"
)

// SampleConstraint is one row of the sample-constraint grid: one value
// constraint per target column (nil entries are unconstrained / missing
// cells). A schema mapping query satisfies the sample constraint if its
// result contains at least one tuple satisfying every non-nil cell.
type SampleConstraint struct {
	Cells []lang.ValueExpr
}

// Arity returns the number of target columns the sample spans.
func (s SampleConstraint) Arity() int { return len(s.Cells) }

// ConstrainedColumns returns the indexes of cells carrying a constraint.
func (s SampleConstraint) ConstrainedColumns() []int {
	var out []int
	for i, c := range s.Cells {
		if c != nil {
			out = append(out, i)
		}
	}
	return out
}

// IsEmpty reports whether the sample carries no constraints at all.
func (s SampleConstraint) IsEmpty() bool { return len(s.ConstrainedColumns()) == 0 }

// MatchesTuple reports whether the tuple (in target-column order) satisfies
// every constrained cell of the sample.
func (s SampleConstraint) MatchesTuple(t value.Tuple) bool {
	if len(t) < len(s.Cells) {
		return false
	}
	for i, c := range s.Cells {
		if c == nil {
			continue
		}
		if !c.Eval(t[i]) {
			return false
		}
	}
	return true
}

// MatchesProjection reports whether the partial tuple covering only the
// target columns listed in cols satisfies the corresponding cells. This is
// the satisfaction test for filters, which project a subset of the target
// columns.
func (s SampleConstraint) MatchesProjection(cols []int, t value.Tuple) bool {
	if len(cols) != len(t) {
		return false
	}
	for i, col := range cols {
		if col < 0 || col >= len(s.Cells) {
			return false
		}
		c := s.Cells[col]
		if c == nil {
			continue
		}
		if !c.Eval(t[i]) {
			return false
		}
	}
	return true
}

// Resolution returns the coarsest resolution across the constrained cells:
// a sample with any disjunction/range cell is medium resolution even if the
// other cells are exact.
func (s SampleConstraint) Resolution() lang.Resolution {
	res := lang.ResolutionHigh
	constrained := false
	for _, c := range s.Cells {
		if c == nil {
			continue
		}
		constrained = true
		if c.Resolution() == lang.ResolutionMedium {
			res = lang.ResolutionMedium
		}
	}
	if !constrained {
		return lang.ResolutionLow
	}
	return res
}

// String renders the sample row in grid syntax ("cell | cell | cell").
func (s SampleConstraint) String() string {
	parts := make([]string, len(s.Cells))
	for i, c := range s.Cells {
		if c == nil {
			parts[i] = ""
			continue
		}
		parts[i] = c.String()
	}
	return strings.Join(parts, " | ")
}

// Spec is the full multiresolution constraint set Q for one schema mapping
// task.
type Spec struct {
	// NumColumns is the number of columns of the target schema.
	NumColumns int
	// Samples are the result constraints (one per sample row).
	Samples []SampleConstraint
	// Metadata holds one optional metadata constraint per target column
	// (nil = unconstrained).
	Metadata []lang.MetaExpr
}

// NewSpec validates and assembles a specification.
func NewSpec(numColumns int, samples []SampleConstraint, metadata []lang.MetaExpr) (*Spec, error) {
	if numColumns <= 0 {
		return nil, fmt.Errorf("constraint: target schema must have at least one column, got %d", numColumns)
	}
	for i, s := range samples {
		if s.Arity() != numColumns {
			return nil, fmt.Errorf("constraint: sample %d has %d cells, want %d", i, s.Arity(), numColumns)
		}
	}
	if metadata == nil {
		metadata = make([]lang.MetaExpr, numColumns)
	}
	if len(metadata) != numColumns {
		return nil, fmt.Errorf("constraint: metadata row has %d cells, want %d", len(metadata), numColumns)
	}
	sp := &Spec{NumColumns: numColumns, Samples: samples, Metadata: metadata}
	if err := sp.checkNonEmpty(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Spec) checkNonEmpty() error {
	for col := 0; col < sp.NumColumns; col++ {
		if sp.ColumnConstrained(col) {
			return nil
		}
	}
	return fmt.Errorf("constraint: specification carries no constraints at all")
}

// ParseGrid builds a Spec directly from the Description-section grids: raw
// sample rows (each with numColumns cells) and an optional metadata row.
func ParseGrid(numColumns int, sampleRows [][]string, metadataRow []string) (*Spec, error) {
	samples := make([]SampleConstraint, 0, len(sampleRows))
	for i, row := range sampleRows {
		if len(row) != numColumns {
			return nil, fmt.Errorf("constraint: sample row %d has %d cells, want %d", i, len(row), numColumns)
		}
		cells, err := lang.ParseSampleRow(row)
		if err != nil {
			return nil, fmt.Errorf("constraint: sample row %d: %w", i, err)
		}
		samples = append(samples, SampleConstraint{Cells: cells})
	}
	var metadata []lang.MetaExpr
	if metadataRow != nil {
		if len(metadataRow) != numColumns {
			return nil, fmt.Errorf("constraint: metadata row has %d cells, want %d", len(metadataRow), numColumns)
		}
		var err error
		metadata, err = lang.ParseMetadataRow(metadataRow)
		if err != nil {
			return nil, fmt.Errorf("constraint: metadata row: %w", err)
		}
	}
	return NewSpec(numColumns, samples, metadata)
}

// ColumnConstrained reports whether target column col carries any value or
// metadata constraint.
func (sp *Spec) ColumnConstrained(col int) bool {
	if col < 0 || col >= sp.NumColumns {
		return false
	}
	if sp.Metadata[col] != nil {
		return true
	}
	for _, s := range sp.Samples {
		if col < len(s.Cells) && s.Cells[col] != nil {
			return true
		}
	}
	return false
}

// ColumnValueExprs returns the value constraints appearing in column col
// across all samples.
func (sp *Spec) ColumnValueExprs(col int) []lang.ValueExpr {
	var out []lang.ValueExpr
	for _, s := range sp.Samples {
		if col < len(s.Cells) && s.Cells[col] != nil {
			out = append(out, s.Cells[col])
		}
	}
	return out
}

// Resolution classifies the whole specification: high if every constrained
// sample cell is exact, low if only metadata constraints are present,
// medium otherwise.
func (sp *Spec) Resolution() lang.Resolution {
	hasSample := false
	res := lang.ResolutionHigh
	for _, s := range sp.Samples {
		for _, c := range s.Cells {
			if c == nil {
				continue
			}
			hasSample = true
			if c.Resolution() == lang.ResolutionMedium {
				res = lang.ResolutionMedium
			}
		}
	}
	if !hasSample {
		return lang.ResolutionLow
	}
	return res
}

// ColumnFeasible reports whether a source column with the given statistics
// could be mapped to target column col: it must satisfy the column's
// metadata constraint (if any) and at least one of the column's value
// constraints must be feasible (when value constraints exist).
//
// hasKeyword answers whether the source column contains an exact keyword.
func (sp *Spec) ColumnFeasible(col int, st schema.Stats, hasKeyword func(string) bool) bool {
	if col < 0 || col >= sp.NumColumns {
		return false
	}
	if m := sp.Metadata[col]; m != nil && !m.Eval(st) {
		return false
	}
	exprs := sp.ColumnValueExprs(col)
	if len(exprs) == 0 {
		// Metadata-only (or fully unconstrained) column: any column passing
		// the metadata check is a candidate.
		return true
	}
	// At least one sample must be satisfiable from this column. Different
	// samples may be served by different rows, so feasibility of any sample
	// cell suffices; requiring all would wrongly prune.
	for _, e := range exprs {
		if lang.ColumnFeasible(e, st, hasKeyword) {
			return true
		}
	}
	return false
}

// MatchesResult reports whether a full result set satisfies the
// specification: every sample constraint must be contained in (matched by)
// at least one result tuple. Metadata constraints are checked structurally
// during discovery, not against result data.
func (sp *Spec) MatchesResult(rows []value.Tuple) bool {
	for _, s := range sp.Samples {
		if s.IsEmpty() {
			continue
		}
		found := false
		for _, row := range rows {
			if s.MatchesTuple(row) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// String renders the specification for logs and explanations.
func (sp *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target columns: %d\n", sp.NumColumns)
	for i, s := range sp.Samples {
		fmt.Fprintf(&b, "sample %d: %s\n", i+1, s)
	}
	for i, m := range sp.Metadata {
		if m == nil {
			continue
		}
		fmt.Fprintf(&b, "metadata col %d: %s\n", i+1, m)
	}
	return b.String()
}
