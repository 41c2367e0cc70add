package lang

import (
	"fmt"
	"math"
	"strings"

	"prism/internal/schema"
	"prism/internal/value"
)

// BinOp is a comparison operator of the constraint grammar.
type BinOp uint8

const (
	// OpEq is equality (= or ==).
	OpEq BinOp = iota
	// OpNe is inequality (!= or <>).
	OpNe
	// OpLt, OpLe, OpGt, OpGe are the orderings.
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in canonical form.
func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ParseBinOp converts operator text to a BinOp.
func ParseBinOp(s string) (BinOp, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return OpEq, fmt.Errorf("lang: unknown operator %q", s)
	}
}

// apply evaluates "left op right" under Value.Compare semantics.
func (op BinOp) apply(left, right value.Value) bool {
	c := left.Compare(right)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// applyInt evaluates "left op right" for integers.
func (op BinOp) applyInt(left, right int) bool {
	switch op {
	case OpEq:
		return left == right
	case OpNe:
		return left != right
	case OpLt:
		return left < right
	case OpLe:
		return left <= right
	case OpGt:
		return left > right
	case OpGe:
		return left >= right
	default:
		return false
	}
}

// ValueExpr is a row-level value constraint on a single target column: the
// ck production of Figure 1, extended with ranges and negation.
type ValueExpr interface {
	// Eval reports whether the cell value satisfies the constraint.
	Eval(v value.Value) bool
	// String renders the constraint in canonical language syntax.
	String() string
	// Resolution classifies how precise the constraint is.
	Resolution() Resolution
}

// MetaExpr is a column-level metadata constraint: the cm production of
// Figure 1. It is evaluated against preprocessed column statistics.
type MetaExpr interface {
	// Eval reports whether a column with the given statistics satisfies the
	// constraint.
	Eval(st schema.Stats) bool
	// String renders the constraint in canonical language syntax.
	String() string
}

// Resolution classifies constraint precision, mirroring the paper's
// high/medium/low terminology.
type Resolution uint8

const (
	// ResolutionHigh is an exact value (complete sample cell).
	ResolutionHigh Resolution = iota
	// ResolutionMedium is an approximate value: disjunction of candidates,
	// range, or comparison.
	ResolutionMedium
	// ResolutionLow is column-level metadata only (no row-level value).
	ResolutionLow
)

// String names the resolution level.
func (r Resolution) String() string {
	switch r {
	case ResolutionHigh:
		return "high"
	case ResolutionMedium:
		return "medium"
	case ResolutionLow:
		return "low"
	default:
		return fmt.Sprintf("resolution(%d)", uint8(r))
	}
}

// ---------------------------------------------------------------------------
// Value-constraint AST nodes
// ---------------------------------------------------------------------------

// Keyword is an exact-value predicate: the cell must equal the keyword
// (case-insensitive text, numeric when the keyword is numeric). A bare cell
// such as "Lake Tahoe" parses to a Keyword.
type Keyword struct {
	Word string
}

// Eval implements ValueExpr.
func (k Keyword) Eval(v value.Value) bool { return v.MatchesKeyword(k.Word) }

// String implements ValueExpr.
func (k Keyword) String() string {
	if needsQuoting(k.Word) {
		return "'" + strings.ReplaceAll(k.Word, "'", "''") + "'"
	}
	return k.Word
}

// Resolution implements ValueExpr: an exact keyword is high resolution.
func (k Keyword) Resolution() Resolution { return ResolutionHigh }

// Compare is a value predicate "binop const": the pv production.
type Compare struct {
	Op    BinOp
	Const value.Value
}

// Eval implements ValueExpr.
func (c Compare) Eval(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	return c.Op.apply(v, c.Const)
}

// String implements ValueExpr.
func (c Compare) String() string { return c.Op.String() + " " + quoteConst(c.Const) }

// Resolution implements ValueExpr: equality is high resolution, everything
// else is approximate.
func (c Compare) Resolution() Resolution {
	if c.Op == OpEq {
		return ResolutionHigh
	}
	return ResolutionMedium
}

// Range is the closed interval shorthand "[lo, hi]".
type Range struct {
	Lo, Hi value.Value
}

// Eval implements ValueExpr.
func (r Range) Eval(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	return v.Compare(r.Lo) >= 0 && v.Compare(r.Hi) <= 0
}

// String implements ValueExpr.
func (r Range) String() string { return "[" + quoteConst(r.Lo) + ", " + quoteConst(r.Hi) + "]" }

// Resolution implements ValueExpr.
func (r Range) Resolution() Resolution { return ResolutionMedium }

// And is the conjunction of value constraints.
type And struct {
	Terms []ValueExpr
}

// Eval implements ValueExpr.
func (a And) Eval(v value.Value) bool {
	for _, t := range a.Terms {
		if !t.Eval(v) {
			return false
		}
	}
	return true
}

// String implements ValueExpr.
func (a And) String() string { return joinExprs(a.Terms, " && ") }

// Resolution implements ValueExpr: the conjunction is as precise as its most
// precise term.
func (a And) Resolution() Resolution {
	res := ResolutionMedium
	for _, t := range a.Terms {
		if t.Resolution() == ResolutionHigh {
			res = ResolutionHigh
		}
	}
	return res
}

// Or is the disjunction of value constraints, e.g. "California || Nevada".
type Or struct {
	Terms []ValueExpr
}

// Eval implements ValueExpr.
func (o Or) Eval(v value.Value) bool {
	for _, t := range o.Terms {
		if t.Eval(v) {
			return true
		}
	}
	return false
}

// String implements ValueExpr.
func (o Or) String() string { return joinExprs(o.Terms, " || ") }

// Resolution implements ValueExpr: a disjunction is approximate even when
// its branches are exact values.
func (o Or) Resolution() Resolution { return ResolutionMedium }

// Not negates a value constraint (a small extension beyond Figure 1 that the
// parser accepts for completeness).
type Not struct {
	Term ValueExpr
}

// Eval implements ValueExpr.
func (n Not) Eval(v value.Value) bool { return !n.Term.Eval(v) }

// String implements ValueExpr.
func (n Not) String() string { return "NOT (" + n.Term.String() + ")" }

// Resolution implements ValueExpr.
func (n Not) Resolution() Resolution { return ResolutionMedium }

func joinExprs(terms []ValueExpr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.String()
		switch t.(type) {
		case And, Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func needsQuoting(word string) bool {
	if word == "" {
		return true
	}
	for _, r := range word {
		switch r {
		case '\'', '"', '(', ')', '[', ']', ',', '=', '<', '>', '!', '&', '|':
			return true
		}
	}
	return strings.ContainsAny(word, "\t\n")
}

func quoteConst(v value.Value) string {
	if v.Kind() == value.Text {
		return "'" + strings.ReplaceAll(v.Text(), "'", "''") + "'"
	}
	return v.String()
}

// ---------------------------------------------------------------------------
// Value-constraint analysis helpers
// ---------------------------------------------------------------------------

// EqualityKeywords analyses whether the expression is equality-shaped: a
// keyword, an equality comparison, a disjunction of such terms, or a
// conjunction containing at least one equality-shaped term. When ok, the
// returned keywords are a complete cover — Eval(v) implies
// v.MatchesKeyword(k) for some returned k — so an executor with a keyword
// index may select candidate rows by point lookup and re-check them with
// Eval. ok is false for range, ordering and negation shapes, which have no
// finite keyword cover.
func EqualityKeywords(e ValueExpr) (keywords []string, ok bool) {
	switch n := e.(type) {
	case Keyword:
		return []string{n.Word}, true
	case Compare:
		if n.Op == OpEq {
			// Date/Time constants compare numerically against numeric cells
			// (unix seconds) under Compare, which MatchesKeyword cannot
			// express with a finite keyword list; leave those to a scan.
			if k := n.Const.Kind(); k == value.Date || k == value.Time {
				return nil, false
			}
			// A NaN constant equals every NaN-viewed value under Compare,
			// "nan" text included, but matches no value as a keyword.
			if f, ok := n.Const.Float(); ok && math.IsNaN(f) {
				return nil, false
			}
			return []string{n.Const.String()}, true
		}
		return nil, false
	case Or:
		var out []string
		for _, t := range n.Terms {
			kws, tok := EqualityKeywords(t)
			if !tok {
				// One non-equality branch makes the disjunction uncoverable.
				return nil, false
			}
			out = append(out, kws...)
		}
		return out, len(out) > 0
	case And:
		// A conjunction is covered by any one equality-shaped term: Eval
		// implies that term's Eval, which implies its keyword cover.
		for _, t := range n.Terms {
			if kws, tok := EqualityKeywords(t); tok {
				return kws, true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// ColumnFeasible conservatively reports whether some value stored in a
// column with the given statistics could satisfy the constraint. hasKeyword
// answers whether the column contains an exact keyword (via its key
// dictionary, mem.Database.ColumnHasKeyword). False negatives are not allowed (a false "infeasible" would
// prune a valid mapping); false positives merely cost extra validation work.
func ColumnFeasible(e ValueExpr, st schema.Stats, hasKeyword func(string) bool) bool {
	if e == nil {
		return true
	}
	if st.NonNullCount() == 0 {
		return false
	}
	switch n := e.(type) {
	case Keyword:
		return hasKeyword(n.Word)
	case Compare:
		switch n.Op {
		case OpEq:
			return hasKeyword(n.Const.String())
		case OpNe:
			// Feasible unless every value equals the constant.
			return st.Distinct > 1 || !st.Min.Equal(n.Const)
		case OpLt:
			return st.Min.Compare(n.Const) < 0
		case OpLe:
			return st.Min.Compare(n.Const) <= 0
		case OpGt:
			return st.Max.Compare(n.Const) > 0
		case OpGe:
			return st.Max.Compare(n.Const) >= 0
		}
		return true
	case Range:
		return st.Max.Compare(n.Lo) >= 0 && st.Min.Compare(n.Hi) <= 0
	case And:
		for _, t := range n.Terms {
			if !ColumnFeasible(t, st, hasKeyword) {
				return false
			}
		}
		return true
	case Or:
		for _, t := range n.Terms {
			if ColumnFeasible(t, st, hasKeyword) {
				return true
			}
		}
		return false
	case Not:
		// Conservative: do not prune on negations.
		return true
	default:
		return true
	}
}

// ---------------------------------------------------------------------------
// Metadata-constraint AST nodes
// ---------------------------------------------------------------------------

// MetaField identifies which column statistic a metadata predicate tests:
// the "Metadata Type" production of Figure 1 (DataType, ColumnName,
// MaxValue, MinValue) plus MaxLength, which the running system supports.
type MetaField uint8

const (
	// FieldDataType tests the declared column type.
	FieldDataType MetaField = iota
	// FieldColumnName tests the column name.
	FieldColumnName
	// FieldMaxValue tests the maximum stored value.
	FieldMaxValue
	// FieldMinValue tests the minimum stored value.
	FieldMinValue
	// FieldMaxLength tests the maximum rendered text length.
	FieldMaxLength
	// FieldTableName tests the table name (an extension useful when the
	// user knows roughly where data lives).
	FieldTableName
)

// String renders the canonical field name.
func (f MetaField) String() string {
	switch f {
	case FieldDataType:
		return "DataType"
	case FieldColumnName:
		return "ColumnName"
	case FieldMaxValue:
		return "MaxValue"
	case FieldMinValue:
		return "MinValue"
	case FieldMaxLength:
		return "MaxLength"
	case FieldTableName:
		return "TableName"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// ParseMetaField parses a metadata field name (case-insensitive, accepting
// a few synonyms such as "type" and "maxtextlength").
func ParseMetaField(s string) (MetaField, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "datatype", "type":
		return FieldDataType, nil
	case "columnname", "column", "name":
		return FieldColumnName, nil
	case "maxvalue", "max":
		return FieldMaxValue, nil
	case "minvalue", "min":
		return FieldMinValue, nil
	case "maxlength", "maxtextlength", "length":
		return FieldMaxLength, nil
	case "tablename", "table":
		return FieldTableName, nil
	default:
		return FieldDataType, fmt.Errorf("lang: unknown metadata field %q", s)
	}
}

// MetaPredicate is "field binop const": the pm production of Figure 1.
type MetaPredicate struct {
	Field MetaField
	Op    BinOp
	Const string
}

// Eval implements MetaExpr.
func (p MetaPredicate) Eval(st schema.Stats) bool {
	switch p.Field {
	case FieldDataType:
		want, err := value.ParseKind(p.Const)
		if err != nil {
			return false
		}
		match := st.Type == want
		// Int columns satisfy a "decimal" requirement: every int is a valid
		// decimal, which is what a user asserting "numeric and positive"
		// means.
		if !match && want == value.Decimal && st.Type == value.Int {
			match = true
		}
		if p.Op == OpNe {
			return !match
		}
		return match
	case FieldColumnName:
		cmp := strings.EqualFold(st.Ref.Column, p.Const)
		if !cmp && strings.ContainsAny(p.Const, "%*") {
			cmp = wildcardMatch(strings.ToLower(p.Const), strings.ToLower(st.Ref.Column))
		}
		if p.Op == OpNe {
			return !cmp
		}
		return cmp
	case FieldTableName:
		cmp := strings.EqualFold(st.Ref.Table, p.Const)
		if !cmp && strings.ContainsAny(p.Const, "%*") {
			cmp = wildcardMatch(strings.ToLower(p.Const), strings.ToLower(st.Ref.Table))
		}
		if p.Op == OpNe {
			return !cmp
		}
		return cmp
	case FieldMaxValue:
		if st.Max.IsNull() {
			return false
		}
		return p.Op.apply(st.Max, value.Parse(p.Const))
	case FieldMinValue:
		if st.Min.IsNull() {
			return false
		}
		return p.Op.apply(st.Min, value.Parse(p.Const))
	case FieldMaxLength:
		want, ok := value.Parse(p.Const).Float()
		if !ok {
			return false
		}
		return p.Op.applyInt(st.MaxLength, int(want))
	default:
		return false
	}
}

// String implements MetaExpr.
func (p MetaPredicate) String() string {
	return fmt.Sprintf("%s %s '%s'", p.Field, p.Op, strings.ReplaceAll(p.Const, "'", "''"))
}

// MetaAnd is the conjunction of metadata constraints.
type MetaAnd struct {
	Terms []MetaExpr
}

// Eval implements MetaExpr.
func (a MetaAnd) Eval(st schema.Stats) bool {
	for _, t := range a.Terms {
		if !t.Eval(st) {
			return false
		}
	}
	return true
}

// String implements MetaExpr.
func (a MetaAnd) String() string { return joinMeta(a.Terms, " AND ") }

// MetaOr is the disjunction of metadata constraints ("ambiguous" metadata in
// the paper's terminology).
type MetaOr struct {
	Terms []MetaExpr
}

// Eval implements MetaExpr.
func (o MetaOr) Eval(st schema.Stats) bool {
	for _, t := range o.Terms {
		if t.Eval(st) {
			return true
		}
	}
	return false
}

// String implements MetaExpr.
func (o MetaOr) String() string { return joinMeta(o.Terms, " OR ") }

func joinMeta(terms []MetaExpr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.String()
		switch t.(type) {
		case MetaAnd, MetaOr:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// wildcardMatch matches pattern against s where '%' and '*' match any run
// of characters.
func wildcardMatch(pattern, s string) bool {
	pattern = strings.ReplaceAll(pattern, "*", "%")
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(s, parts[i])
		if idx < 0 {
			return false
		}
		s = s[idx+len(parts[i]):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}
