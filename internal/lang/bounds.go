package lang

import (
	"math"

	"prism/internal/value"
)

// NumericBounds derives a closed numeric interval cover [lo, hi] of a value
// constraint, which the columnar executor compares against the range of a
// column's numeric views to prove a selection empty: whenever ok, every
// value v with a defined, non-NaN numeric view (v.Float()) that satisfies
// Eval lies inside the interval, and Eval rejects NULL. NaN-viewed values
// (e.g. the text "nan") sit outside the contract: value.Compare orders NaN
// below every number, so such a value can satisfy an ordering predicate
// while lying outside every finite interval — consumers must exclude
// columns that may contain them (colexec prunes only a column every value
// of which has a non-NaN view) before pruning. An executor that knows a
// column's numeric values all fall outside the interval may then skip the
// column entirely.
//
// The cover is intentionally conservative:
//
//   - Only Int/Decimal constants produce bounds. Date/Time constants are
//     excluded because Value.Compare orders non-numeric text against them
//     by kind, not by magnitude, so a numeric interval would not be a
//     cover. Keywords are excluded too (their equality semantics are served
//     better by the key dictionary's keyword lookup).
//   - A conjunction may take each side of the interval from any of its
//     terms (Eval implies every term, hence every term's cover).
//   - A disjunction is covered only when every branch is; the interval is
//     the convex hull. Branches additionally all reject NULL, preserving
//     the NULL contract.
//   - Negation, orderings on non-numeric constants, and any shape this
//     analysis does not understand yield ok == false — never a wrong
//     interval.
//
// ExactRangeBounds reports bounds that characterise e exactly rather than
// merely cover it: when ok, e.Eval(v) holds iff v.Float() yields f with
// b.Lo <= f <= b.Hi. Only the pure numeric Range shape "[lo, hi]"
// qualifies, and the equivalence holds for EVERY value kind:
//
//   - values with a numeric view (Int, Decimal, Date, Time,
//     numeric-looking Text) compare against Int/Decimal constants by
//     magnitude (compareFloat), so Eval is exactly the interval test —
//     including a NaN view, which both sides reject;
//   - NULL fails Eval and has no numeric view;
//   - non-numeric Text sorts above both numeric kinds in the cross-kind
//     order, so it lands above Hi and below neither — Eval is false, and
//     Float reports !ok.
//
// Ordering shapes (">= c") are NOT exact: non-numeric text sorts above the
// constant and satisfies them while having no numeric view. Executors use
// exact bounds to answer the predicate with two float comparisons instead
// of a closure call per row (exec.ColumnPredicate.BoundsExact).
func ExactRangeBounds(e ValueExpr) (BoundsCover, bool) {
	r, ok := e.(Range)
	if !ok {
		return BoundsCover{}, false
	}
	lo, lok := numericConst(r.Lo)
	hi, hok := numericConst(r.Hi)
	if !lok || !hok {
		return BoundsCover{}, false
	}
	return BoundsCover{Lo: lo, Hi: hi, HasLo: true, HasHi: true}, true
}

func NumericBounds(e ValueExpr) (b BoundsCover, ok bool) {
	switch n := e.(type) {
	case Compare:
		f, numeric := numericConst(n.Const)
		if !numeric {
			return BoundsCover{}, false
		}
		switch n.Op {
		case OpEq:
			return BoundsCover{Lo: f, Hi: f, HasLo: true, HasHi: true}, true
		case OpLt, OpLe:
			// [−∞, C] covers both < C and <= C (covers may be loose).
			return BoundsCover{Hi: f, HasHi: true}, true
		case OpGt, OpGe:
			return BoundsCover{Lo: f, HasLo: true}, true
		default:
			return BoundsCover{}, false
		}
	case Range:
		lo, lok := numericConst(n.Lo)
		hi, hok := numericConst(n.Hi)
		if !lok || !hok {
			return BoundsCover{}, false
		}
		return BoundsCover{Lo: lo, Hi: hi, HasLo: true, HasHi: true}, true
	case And:
		// Eval implies every term, so each side of the interval may come
		// from whichever term bounds it tightest.
		var out BoundsCover
		for _, t := range n.Terms {
			tb, tok := NumericBounds(t)
			if !tok {
				continue
			}
			if tb.HasLo && (!out.HasLo || tb.Lo > out.Lo) {
				out.Lo, out.HasLo = tb.Lo, true
			}
			if tb.HasHi && (!out.HasHi || tb.Hi < out.Hi) {
				out.Hi, out.HasHi = tb.Hi, true
			}
		}
		return out.normalized(), out.HasLo || out.HasHi
	case Or:
		// Convex hull, and only when every branch is covered.
		var out BoundsCover
		for i, t := range n.Terms {
			tb, tok := NumericBounds(t)
			if !tok {
				return BoundsCover{}, false
			}
			if i == 0 {
				out = tb
				continue
			}
			if out.HasLo {
				if !tb.HasLo {
					out.HasLo = false
				} else if tb.Lo < out.Lo {
					out.Lo = tb.Lo
				}
			}
			if out.HasHi {
				if !tb.HasHi {
					out.HasHi = false
				} else if tb.Hi > out.Hi {
					out.Hi = tb.Hi
				}
			}
		}
		return out.normalized(), len(n.Terms) > 0 && (out.HasLo || out.HasHi)
	default:
		return BoundsCover{}, false
	}
}

// normalized zeroes the unset sides so covers compare cleanly.
func (b BoundsCover) normalized() BoundsCover {
	if !b.HasLo {
		b.Lo = 0
	}
	if !b.HasHi {
		b.Hi = 0
	}
	return b
}

// BoundsCover is the numeric interval produced by NumericBounds. It
// mirrors exec.NumericBounds without importing exec (lang sits below the
// execution layer).
type BoundsCover struct {
	Lo, Hi       float64
	HasLo, HasHi bool
}

// numericConst returns the float view of an Int/Decimal constant. NaN
// constants are rejected: interval arithmetic over NaN silently disables
// every comparison, which would make the cover meaningless.
func numericConst(v value.Value) (float64, bool) {
	k := v.Kind()
	if k != value.Int && k != value.Decimal {
		return 0, false
	}
	f, ok := v.Float()
	if !ok || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}
