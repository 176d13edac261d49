package rel

// Comparison operators and column predicates shared by the SQL layer and
// the vectorized scan path. They live here — not in internal/sql — because
// internal/core and internal/pax evaluate them against page bytes without
// importing the SQL layer.

// CmpOp is a scalar comparison operator.
type CmpOp uint8

const (
	// CmpEq is "=".
	CmpEq CmpOp = iota
	// CmpNe is "!=".
	CmpNe
	// CmpLt is "<".
	CmpLt
	// CmpLe is "<=".
	CmpLe
	// CmpGt is ">".
	CmpGt
	// CmpGe is ">=".
	CmpGe
)

// String renders the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?op?"
	}
}

// Accepts reports whether a Compare result c (of lhs vs rhs) satisfies the
// operator "lhs op rhs".
func (op CmpOp) Accepts(c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// Holds reports whether "lhs op rhs" holds: the one predicate rule of the
// row path, which must answer as the batch filter (pax.FilterFixed) and
// the zone rule do. Floats compare IEEE-style there, so a NaN on either
// side satisfies only "!=". Compare's order, in which a NaN ties with
// every float, stays for sorting.
func (op CmpOp) Holds(lhs, rhs Value) bool {
	if lhs.Kind == TFloat64 && rhs.Kind == TFloat64 && (lhs.F != lhs.F || rhs.F != rhs.F) {
		return op == CmpNe
	}
	return op.Accepts(Compare(lhs, rhs))
}

// Compare orders two values: -1, 0, or +1. Mixed kinds order by kind — the
// SQL layer coerces literals to column types before comparing, so mixed
// kinds only arise in defensive paths.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case TInt64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	case TFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
	case TString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
	}
	return 0
}

// ColPred is one column predicate "col op val", with col a schema position
// and val already coerced to the column type.
type ColPred struct {
	Col int
	Op  CmpOp
	Val Value
}

// EvalRow evaluates the predicate against a materialized row.
func (p ColPred) EvalRow(row Row) bool {
	return p.Op.Holds(row[p.Col], p.Val)
}

// AggOp is a pushed-down aggregate function over one column strip.
type AggOp uint8

const (
	// AggOpCount counts qualifying rows (COUNT(*)).
	AggOpCount AggOp = iota
	// AggOpSum sums a numeric column.
	AggOpSum
	// AggOpMin takes the minimum of a column.
	AggOpMin
	// AggOpMax takes the maximum of a column.
	AggOpMax
)

// AggSpec is one aggregate to compute during a scan: Op over column Col
// (Col is ignored for AggOpCount).
type AggSpec struct {
	Op  AggOp
	Col int
}
