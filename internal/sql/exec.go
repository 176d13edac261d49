package sql

import (
	"errors"
	"fmt"

	"phoebedb/internal/rel"
)

// Catalog is the DDL surface the executor needs (satisfied by both
// engines' catalogs; the adapter in the public API wires it).
type Catalog interface {
	CreateTable(name string, schema *rel.Schema) error
	CreateIndex(table, index string, cols []string, unique bool) error
	// TableSchema returns the schema of a table.
	TableSchema(name string) (*rel.Schema, error)
	// IndexInfo enumerates a table's indexes: name, column positions,
	// uniqueness.
	IndexInfo(table string) ([]IndexMeta, error)
}

// IndexMeta describes one index for planning.
type IndexMeta struct {
	Name   string
	Cols   []int
	Unique bool
}

// StatCatalog is optionally implemented by catalogs exposing pg_stat-style
// virtual tables (phoebe_stat_engine, phoebe_stat_activity, ...). StatTable
// materializes the named virtual table at call time; ok is false when the
// name is not a stat table, sending the query down the normal path. Stat
// tables are read-only: INSERT/UPDATE/DELETE against them are rejected.
type StatCatalog interface {
	StatTable(name string) (schema *rel.Schema, rows []rel.Row, ok bool)
}

// statTable resolves name against cat's virtual tables, if it has any.
func statTable(cat Catalog, name string) (*rel.Schema, []rel.Row, bool) {
	if sc, ok := cat.(StatCatalog); ok {
		return sc.StatTable(name)
	}
	return nil, nil, false
}

// errStatReadOnly rejects writes to virtual stat tables.
func errStatReadOnly(table string) error {
	return fmt.Errorf("sql: %q is a read-only stat table", table)
}

// Txn is the DML surface the executor needs (a subset of the kernel's
// transaction API). Rows handed to scan callbacks are borrowed: valid
// until the callback returns.
type Txn interface {
	Insert(table string, row rel.Row) (rel.RowID, error)
	ScanIndex(table, index string, vals []rel.Value, fn func(rid rel.RowID, row rel.Row) bool) error
	// ScanIndexRange is the B-Tree range scan: prefix carries the equality
	// values pinning the leading index columns; the bounds constrain the
	// next index column. An unset bound (hasLo/hasHi false) leaves that
	// side open within the prefix.
	ScanIndexRange(table, index string, prefix []rel.Value, lo, hi rel.Value,
		hasLo, hasHi, loIncl, hiIncl bool, fn func(rid rel.RowID, row rel.Row) bool) error
	// ScanTableFiltered is the full scan: fn sees only visible rows
	// satisfying every predicate, each of which must name a fixed-width
	// column — they evaluate batch-at-a-time against PAX column strips
	// (selection vectors, §5.2) and prune cold blocks by zone map.
	ScanTableFiltered(table string, preds []rel.ColPred, fn func(rid rel.RowID, row rel.Row) bool) error
	// AggTableFiltered folds the rows ScanTableFiltered would emit into the
	// given aggregates without materializing them, returning one value per
	// spec plus the qualifying row count (vals are meaningless when n is 0).
	AggTableFiltered(table string, preds []rel.ColPred, specs []rel.AggSpec) (vals []rel.Value, n int64, err error)
	Update(table string, rid rel.RowID, set map[string]rel.Value) error
	Delete(table string, rid rel.RowID) error
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the projected columns of a SELECT.
	Columns []string
	// Rows holds SELECT output.
	Rows []rel.Row
	// Affected counts rows written by INSERT/UPDATE/DELETE.
	Affected int
}

// ErrUnsupported reports a statement outside the implemented subset.
var ErrUnsupported = errors.New("sql: unsupported statement")

// ExecDDL runs a CREATE statement against the catalog. DDL is not
// transactional (the embedded engine declares schema at startup).
func ExecDDL(cat Catalog, stmt Stmt) (Result, error) {
	switch s := stmt.(type) {
	case CreateTableStmt:
		return Result{}, cat.CreateTable(s.Table, rel.NewSchema(s.Cols...))
	case CreateIndexStmt:
		return Result{Affected: 0}, cat.CreateIndex(s.Table, s.Index, s.Cols, s.Unique)
	default:
		return Result{}, fmt.Errorf("%w: not DDL", ErrUnsupported)
	}
}

// IsDDL reports whether the statement is CREATE TABLE/INDEX.
func IsDDL(stmt Stmt) bool {
	switch stmt.(type) {
	case CreateTableStmt, CreateIndexStmt:
		return true
	}
	return false
}

// plan is a chosen access path for a WHERE conjunction.
type plan struct {
	// index is the chosen index ("" = full scan).
	index string
	// prefixVals are the equality values covering the index prefix.
	prefixVals []rel.Value
	// Range bounds on the index column right after the equality prefix
	// (meaningful only when hasLo or hasHi): the scan walks the B-Tree
	// between them instead of the whole prefix. rangeCol names the bound
	// column for EXPLAIN.
	rangeCol       string
	lo, hi         rel.Value
	hasLo, hasHi   bool
	loIncl, hiIncl bool
	// residual are the conditions not covered by the index prefix or the
	// range bounds, evaluated against each candidate row.
	residual []Cond
	// empty marks a provably empty result: contradictory conditions on
	// one column (e.g. x > 5 AND x < 3). No scan runs at all.
	empty bool
	// label is the plan's provenance line (scanLabel) when it came out of a
	// cached hint, which renders it once; "" otherwise.
	label string
}

// hasRange reports whether the plan carries index range bounds.
func (p *plan) hasRange() bool { return p.hasLo || p.hasHi }

// planHint is the access-path provenance the plan cache remembers: which
// index was chosen and which WHERE positions feed the prefix and the
// residual. Rebinding a cached statement re-derives the full plan from the
// hint in one pass over the (structurally identical) bound WHERE — no
// index scoring. DDL invalidates the whole cache, so a stored hint never
// outlives the schema it was computed against.
type planHint struct {
	nWhere int
	index  string
	prefix []hintCond
	// rangeLo/rangeHi are WHERE positions feeding the range bounds (-1 =
	// unset); rangeCol is the bound column's schema position. Bound
	// inclusivity re-derives from the WHERE ops, which are part of the
	// cache key, so it cannot drift between bindings.
	rangeCol         int
	rangeLo, rangeHi int
	residual         []hintCond
	// label and emptyLabel are scanLabel of the plans the hint rebuilds
	// (emptiness is the one value-dependent part of the label).
	label, emptyLabel string
}

// hintCond ties one planned condition to its WHERE position and column.
type hintCond struct{ whereIdx, col int }

// coerceCond returns the WHERE literal a hint position names, coerced to its
// column's type. ok=false signals a structural mismatch; an error is a
// genuine literal type mismatch.
func coerceCond(schema *rel.Schema, where []Cond, hc hintCond) (rel.Value, bool, error) {
	if hc.whereIdx >= len(where) || hc.col >= schema.NumCols() {
		return rel.Value{}, false, nil
	}
	v := where[hc.whereIdx].Val
	ct := schema.Cols[hc.col].Type
	if v.Kind != ct {
		if v.Kind == rel.TInt64 && ct == rel.TFloat64 {
			return rel.Float(float64(v.I)), true, nil
		}
		return rel.Value{}, false, fmt.Errorf("sql: column %q: literal type mismatch", where[hc.whereIdx].Col)
	}
	return v, true, nil
}

// rebuild re-derives the plan from the hint for a freshly bound WHERE, its
// value lists in sc. ok=false signals a structural mismatch (the caller
// re-plans from scratch); an error is a genuine literal type mismatch.
// Range bounds re-coerce (int literals widen on float columns) and the
// contradiction check re-runs — a cached BETWEEN bound to an empty interval
// yields an empty plan, not a wrong scan.
func (h *planHint) rebuild(schema *rel.Schema, where []Cond, sc *Scratch) (plan, bool, error) {
	if h.nWhere != len(where) {
		return plan{}, false, nil
	}
	p := plan{index: h.index, label: h.label}
	if len(h.prefix) > 0 {
		p.prefixVals = sc.prefix[:0]
		for _, hc := range h.prefix {
			v, ok, err := coerceCond(schema, where, hc)
			if !ok || err != nil {
				return plan{}, false, err
			}
			p.prefixVals = append(p.prefixVals, v)
		}
		sc.prefix = p.prefixVals
	}
	if h.rangeLo >= 0 {
		v, ok, err := coerceCond(schema, where, hintCond{whereIdx: h.rangeLo, col: h.rangeCol})
		if !ok || err != nil {
			return plan{}, false, err
		}
		c := where[h.rangeLo]
		p.rangeCol, p.lo, p.hasLo, p.loIncl = c.Col, v, true, c.Op == rel.CmpGe
	}
	if h.rangeHi >= 0 {
		v, ok, err := coerceCond(schema, where, hintCond{whereIdx: h.rangeHi, col: h.rangeCol})
		if !ok || err != nil {
			return plan{}, false, err
		}
		c := where[h.rangeHi]
		p.rangeCol, p.hi, p.hasHi, p.hiIncl = c.Col, v, true, c.Op == rel.CmpLe
	}
	if p.hasLo && p.hasHi {
		if c := rel.Compare(p.lo, p.hi); c > 0 || (c == 0 && !(p.loIncl && p.hiIncl)) {
			p.empty, p.label = true, h.emptyLabel
		}
	}
	if len(h.residual) > 0 {
		p.residual = sc.residual[:0]
		for _, hc := range h.residual {
			v, ok, err := coerceCond(schema, where, hc)
			if !ok || err != nil {
				return plan{}, false, err
			}
			p.residual = append(p.residual, Cond{Col: where[hc.whereIdx].Col, Op: where[hc.whereIdx].Op, Val: v})
		}
		sc.residual = p.residual
	}
	return p, true, nil
}

// resolvedCond is one WHERE condition mapped to its column position, with
// the literal coerced to the column type.
type resolvedCond struct {
	whereIdx int
	col      int
	op       rel.CmpOp
	val      rel.Value
}

// resolvedBound is one side of a column's intersected range.
type resolvedBound struct {
	set      bool
	incl     bool
	val      rel.Value
	whereIdx int
}

// resolvedRange is the intersection of all range conditions on one column.
type resolvedRange struct {
	col    int
	lo, hi resolvedBound
}

// resolvedWhere is a WHERE conjunction normalized for planning: equality
// conditions deduped (last wins, the documented planner semantics), range
// conditions intersected per column, != conditions kept verbatim.
type resolvedWhere struct {
	// conds holds equality and != conditions, first-appearance order.
	conds []resolvedCond
	// ranges holds per-column intersected bounds, first-appearance order.
	ranges []resolvedRange
	// empty marks a provably empty conjunction (contradictory bounds, or
	// an equality outside the column's range).
	empty bool
	// stable reports that no value-dependent choice was made (every bound
	// came from exactly one condition and no column mixes = with a
	// range), so a plan hint keyed on WHERE positions can be cached.
	stable bool
}

// resolveWhere maps conditions to column positions, coerces literal types,
// and normalizes the conjunction. Equality conditions on a repeated column
// dedupe with the last one winning — the planner's historical map-overwrite
// semantics, mirrored by the reference engine. Range conditions must NOT
// dedupe that way (x > 5 AND x < 10 is an interval, not a replacement):
// they intersect, tightening each side and keeping the stricter bound on
// ties; a provably empty intersection marks the whole conjunction empty.
// WHERE clauses are small, so linear probing beats building maps.
func resolveWhere(schema *rel.Schema, where []Cond) (resolvedWhere, error) {
	rw := resolvedWhere{stable: true}
	findRange := func(col int) *resolvedRange {
		for j := range rw.ranges {
			if rw.ranges[j].col == col {
				return &rw.ranges[j]
			}
		}
		return nil
	}
	for i, c := range where {
		pos := schema.ColIndex(c.Col)
		if pos < 0 {
			return resolvedWhere{}, fmt.Errorf("sql: unknown column %q", c.Col)
		}
		v := c.Val
		if v.Kind != schema.Cols[pos].Type {
			// Allow int literals for float columns.
			if v.Kind == rel.TInt64 && schema.Cols[pos].Type == rel.TFloat64 {
				v = rel.Float(float64(v.I))
			} else {
				return resolvedWhere{}, fmt.Errorf("sql: column %q: literal type mismatch", c.Col)
			}
		}
		switch c.Op {
		case rel.CmpEq:
			dup := false
			for j := range rw.conds {
				if rw.conds[j].col == pos && rw.conds[j].op == rel.CmpEq {
					rw.conds[j] = resolvedCond{whereIdx: i, col: pos, op: rel.CmpEq, val: v}
					dup = true
					break
				}
			}
			if !dup {
				rw.conds = append(rw.conds, resolvedCond{whereIdx: i, col: pos, op: rel.CmpEq, val: v})
			}
		case rel.CmpNe:
			rw.conds = append(rw.conds, resolvedCond{whereIdx: i, col: pos, op: rel.CmpNe, val: v})
		default:
			rr := findRange(pos)
			if rr == nil {
				rw.ranges = append(rw.ranges, resolvedRange{col: pos})
				rr = &rw.ranges[len(rw.ranges)-1]
			}
			b := resolvedBound{set: true, incl: c.Op == rel.CmpGe || c.Op == rel.CmpLe, val: v, whereIdx: i}
			side := &rr.lo
			if c.Op == rel.CmpLt || c.Op == rel.CmpLe {
				side = &rr.hi
			}
			if !side.set {
				*side = b
				break
			}
			// A second bound on the same side: which one wins depends on
			// the literal values, so a cached hint cannot replay the
			// choice — fall back to per-execution planning.
			rw.stable = false
			cv := rel.Compare(v, side.val)
			isLo := side == &rr.lo
			if (isLo && cv > 0) || (!isLo && cv < 0) || (cv == 0 && !b.incl && side.incl) {
				*side = b
			}
		}
	}
	// Intersect each column's range with itself and with any equality on
	// the same column.
	kept := rw.ranges[:0]
	for _, rr := range rw.ranges {
		if rr.lo.set && rr.hi.set {
			if c := rel.Compare(rr.lo.val, rr.hi.val); c > 0 || (c == 0 && !(rr.lo.incl && rr.hi.incl)) {
				rw.empty = true
			}
		}
		eqVal, hasEq := rel.Value{}, false
		for _, rc := range rw.conds {
			if rc.col == rr.col && rc.op == rel.CmpEq {
				eqVal, hasEq = rc.val, true
				break
			}
		}
		if hasEq {
			// The equality either pins the column inside the range (the
			// range becomes redundant) or contradicts it (empty). Whether
			// the range survives depends on literal values: unstable.
			rw.stable = false
			if rr.lo.set {
				c := rel.Compare(eqVal, rr.lo.val)
				if c < 0 || (c == 0 && !rr.lo.incl) {
					rw.empty = true
				}
			}
			if rr.hi.set {
				c := rel.Compare(eqVal, rr.hi.val)
				if c > 0 || (c == 0 && !rr.hi.incl) {
					rw.empty = true
				}
			}
			continue // equality subsumes the range
		}
		kept = append(kept, rr)
	}
	rw.ranges = kept
	return rw, nil
}

// boundCond renders one range bound back into residual-filter form.
func boundCond(schema *rel.Schema, col int, b resolvedBound, isLo bool) Cond {
	op := rel.CmpLt
	if isLo {
		op = rel.CmpGt
		if b.incl {
			op = rel.CmpGe
		}
	} else if b.incl {
		op = rel.CmpLe
	}
	return Cond{Col: schema.Cols[col].Name, Op: op, Val: b.val}
}

// flatten renders the normalized conjunction as residual-filter conditions
// (for paths that bypass index planning, like the join probe side).
func (rw *resolvedWhere) flatten(schema *rel.Schema) []Cond {
	out := make([]Cond, 0, len(rw.conds)+2*len(rw.ranges))
	for _, rc := range rw.conds {
		out = append(out, Cond{Col: schema.Cols[rc.col].Name, Op: rc.op, Val: rc.val})
	}
	for _, rr := range rw.ranges {
		if rr.lo.set {
			out = append(out, boundCond(schema, rr.col, rr.lo, true))
		}
		if rr.hi.set {
			out = append(out, boundCond(schema, rr.col, rr.hi, false))
		}
	}
	return out
}

// planWhere picks the best access path: the index whose column prefix is
// covered by the most equality conditions, preferring full unique matches,
// with a range condition on the next index column extending the path to a
// B-Tree range scan.
func planWhere(schema *rel.Schema, indexes []IndexMeta, where []Cond) (plan, error) {
	p, _, err := planWhereHint(schema, indexes, where)
	return p, err
}

// planWhereHint is planWhere plus the provenance the plan cache stores.
// The hint is nil when the resolution made value-dependent choices (the
// caller then re-plans per execution instead of caching).
func planWhereHint(schema *rel.Schema, indexes []IndexMeta, where []Cond) (plan, *planHint, error) {
	rw, err := resolveWhere(schema, where)
	if err != nil {
		return plan{}, nil, err
	}
	findEq := func(col int) int {
		for j := range rw.conds {
			if rw.conds[j].col == col && rw.conds[j].op == rel.CmpEq {
				return j
			}
		}
		return -1
	}
	findRange := func(col int) *resolvedRange {
		for j := range rw.ranges {
			if rw.ranges[j].col == col {
				return &rw.ranges[j]
			}
		}
		return nil
	}
	// Score: equality coverage dominates (x4), full unique matches break
	// coverage ties (+2), and a range on the next index column breaks the
	// remaining ties (+1) — so among equally covered indexes the planner
	// prefers the one whose ordering the range can exploit.
	bestIdx, bestScore, bestCovered := -1, 0, 0
	var bestRange *resolvedRange
	for i, ix := range indexes {
		covered := 0
		for _, pos := range ix.Cols {
			if findEq(pos) < 0 {
				break
			}
			covered++
		}
		var rr *resolvedRange
		if covered < len(ix.Cols) {
			rr = findRange(ix.Cols[covered])
		}
		if covered == 0 && rr == nil {
			continue
		}
		score := covered * 4
		if ix.Unique && covered == len(ix.Cols) {
			score += 2 // full unique match wins ties
		}
		if rr != nil {
			score++
		}
		if score > bestScore {
			bestIdx, bestScore, bestCovered, bestRange = i, score, covered, rr
		}
	}
	h := &planHint{nWhere: len(where), rangeCol: -1, rangeLo: -1, rangeHi: -1}
	p := plan{empty: rw.empty}
	inPrefix := func(col int) bool { return false }
	if bestIdx >= 0 {
		ix := indexes[bestIdx]
		p.index, h.index = ix.Name, ix.Name
		if bestCovered > 0 {
			p.prefixVals = make([]rel.Value, 0, bestCovered)
		}
		for _, pos := range ix.Cols[:bestCovered] {
			r := rw.conds[findEq(pos)]
			p.prefixVals = append(p.prefixVals, r.val)
			h.prefix = append(h.prefix, hintCond{whereIdx: r.whereIdx, col: r.col})
		}
		prefixCols := ix.Cols[:bestCovered]
		inPrefix = func(col int) bool {
			for _, pos := range prefixCols {
				if pos == col {
					return true
				}
			}
			return false
		}
		if bestRange != nil {
			p.rangeCol = schema.Cols[bestRange.col].Name
			h.rangeCol = bestRange.col
			if bestRange.lo.set {
				p.lo, p.hasLo, p.loIncl = bestRange.lo.val, true, bestRange.lo.incl
				h.rangeLo = bestRange.lo.whereIdx
			}
			if bestRange.hi.set {
				p.hi, p.hasHi, p.hiIncl = bestRange.hi.val, true, bestRange.hi.incl
				h.rangeHi = bestRange.hi.whereIdx
			}
		}
	}
	for _, r := range rw.conds {
		if r.op == rel.CmpEq && inPrefix(r.col) {
			continue
		}
		p.residual = append(p.residual, Cond{Col: where[r.whereIdx].Col, Op: r.op, Val: r.val})
		h.residual = append(h.residual, hintCond{whereIdx: r.whereIdx, col: r.col})
	}
	for i := range rw.ranges {
		rr := &rw.ranges[i]
		if rr == bestRange {
			continue // enforced by the scan bounds
		}
		if rr.lo.set {
			p.residual = append(p.residual, boundCond(schema, rr.col, rr.lo, true))
			h.residual = append(h.residual, hintCond{whereIdx: rr.lo.whereIdx, col: rr.col})
		}
		if rr.hi.set {
			p.residual = append(p.residual, boundCond(schema, rr.col, rr.hi, false))
			h.residual = append(h.residual, hintCond{whereIdx: rr.hi.whereIdx, col: rr.col})
		}
	}
	if !rw.stable {
		return p, nil, nil
	}
	return p, h, nil
}

// planFor resolves the access path, consulting and populating the cached
// statement's plan hint when one is supplied.
func planFor(hint *CachedStmt, schema *rel.Schema, indexes []IndexMeta, table string, where []Cond, sc *Scratch) (plan, error) {
	if hint == nil {
		return planWhere(schema, indexes, where)
	}
	if h := hint.plan.Load(); h != nil {
		p, ok, err := h.rebuild(schema, where, sc)
		if err != nil {
			return plan{}, err
		}
		if ok {
			return p, nil
		}
	}
	p, h, err := planWhereHint(schema, indexes, where)
	if err != nil {
		return plan{}, err
	}
	if h != nil {
		nonEmpty := p
		nonEmpty.empty = false
		h.label = scanLabel(table, nonEmpty)
		h.emptyLabel = scanLabel(table, plan{empty: true})
		hint.plan.Store(h)
	}
	return p, nil
}

// stmtTable resolves a single-table statement's schema and live indexes,
// from the cached statement when it has them.
func stmtTable(cat Catalog, hint *CachedStmt, table string) (planTable, error) {
	if hint != nil {
		if m := hint.meta.Load(); m != nil {
			return *m, nil
		}
	}
	schema, err := cat.TableSchema(table)
	if err != nil {
		return planTable{}, err
	}
	indexes, err := cat.IndexInfo(table)
	if err != nil {
		return planTable{}, err
	}
	t := planTable{name: table, schema: schema, indexes: indexes}
	if hint != nil {
		m := t
		hint.meta.Store(&m)
	}
	return t, nil
}

func matches(schema *rel.Schema, row rel.Row, conds []Cond) bool {
	for _, c := range conds {
		pos := schema.ColIndex(c.Col)
		if pos < 0 || !c.Op.Holds(row[pos], c.Val) {
			return false
		}
	}
	return true
}

// splitResidual divides the plan's residual between the engine and the
// executor. On a full scan, conjuncts on fixed-width columns lower to strip
// predicates the engine evaluates batch-at-a-time (and prunes cold blocks
// with), and conjuncts on var-width columns stay behind as the row-at-a-time
// rest; both lists live in sc. An index scan checks its whole residual per
// row.
func (p *plan) splitResidual(schema *rel.Schema, sc *Scratch) (strips []rel.ColPred, rest []Cond) {
	if p.index != "" {
		return nil, p.residual
	}
	strips, rest = sc.strips[:0], sc.rest[:0]
	for _, c := range p.residual {
		pos := schema.ColIndex(c.Col)
		if pos < 0 || schema.Cols[pos].Type.FixedWidth() == 0 {
			rest = append(rest, c)
			continue
		}
		strips = append(strips, rel.ColPred{Col: pos, Op: c.Op, Val: c.Val})
	}
	sc.strips, sc.rest = strips, rest
	if len(strips) == 0 {
		strips = nil
	}
	if len(rest) == 0 {
		rest = nil
	}
	return strips, rest
}

// scanMatching drives the planned access path, invoking fn for each
// matching (rid, row) until fn returns false. op, when non-nil, collects
// the scan's actuals for EXPLAIN ANALYZE: rows examined (in), rows passing
// the residual filter (out), and wall time; a nil op costs one branch.
//
// Access paths, in order: a provably empty plan scans nothing; an index
// plan with range bounds runs a B-Tree range scan; an equality-prefix index
// plan runs a prefix scan; a full scan hands the fixed-width part of its
// residual to the engine's column strips and checks the rest per row.
func scanMatching(tx Txn, schema *rel.Schema, table string, p plan, op *opTrace, sc *Scratch, fn func(rid rel.RowID, row rel.Row) bool) error {
	if p.empty {
		return nil
	}
	start := op.begin()
	strips, residual := p.splitResidual(schema, sc)
	sc.bindCallbacks()
	outer := sc.scan
	sc.scan = scanState{schema: schema, residual: residual, op: op, fn: fn}
	var err error
	switch {
	case p.index != "" && p.hasRange():
		err = tx.ScanIndexRange(table, p.index, p.prefixVals, p.lo, p.hi,
			p.hasLo, p.hasHi, p.loIncl, p.hiIncl, sc.visitFn)
	case p.index != "":
		err = tx.ScanIndex(table, p.index, p.prefixVals, sc.visitFn)
	default:
		err = tx.ScanTableFiltered(table, strips, sc.visitFn)
	}
	sc.scan = outer
	op.end(start)
	return err
}

// Exec runs a DML statement inside tx and materializes its result.
func Exec(cat Catalog, tx Txn, stmt Stmt) (Result, error) {
	return Materialize(func(sink RowSink) (int, error) {
		return exec(cat, tx, stmt, nil, nil, new(Scratch), sink)
	})
}

// ExecInto is Exec with the caller's scratch and row sink: a SELECT's rows
// go to sink as they are produced, and n is the number of rows returned
// (SELECT) or affected (writes).
func ExecInto(cat Catalog, tx Txn, stmt Stmt, sc *Scratch, sink RowSink) (n int, err error) {
	return exec(cat, tx, stmt, nil, nil, sc, sink)
}

// ExecPreparedInto binds params into cs's template and executes it, reusing
// the cached access-path choice — the hit-path counterpart of Parse+ExecInto.
// The template is never mutated: params are bound into sc's lists, and a
// long-lived sc makes the hit path allocation-free.
func ExecPreparedInto(cat Catalog, tx Txn, cs *CachedStmt, params []rel.Value, sc *Scratch, sink RowSink) (n int, err error) {
	if len(params) != cs.nParams {
		return 0, fmt.Errorf("sql: template wants %d parameters, got %d", cs.nParams, len(params))
	}
	switch s := cs.tmpl.(type) {
	case InsertStmt:
		s.Rows = sc.bindRows(s.Rows, params)
		return execInsert(cat, tx, s, nil, sc)
	case SelectStmt:
		s.Where = sc.bindConds(s.Where, params)
		return execSelect(cat, tx, s, cs, nil, sc, sink)
	case UpdateStmt:
		s.Set = sc.bindSet(s.Set, params)
		s.Where = sc.bindConds(s.Where, params)
		return execUpdate(cat, tx, s, cs, nil, sc)
	case DeleteStmt:
		s.Where = sc.bindConds(s.Where, params)
		return execDelete(cat, tx, s, cs, nil, sc)
	}
	return 0, ErrUnsupported
}

func exec(cat Catalog, tx Txn, stmt Stmt, hint *CachedStmt, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	switch s := stmt.(type) {
	case InsertStmt:
		return execInsert(cat, tx, s, tr, sc)
	case SelectStmt:
		return execSelect(cat, tx, s, hint, tr, sc, sink)
	case UpdateStmt:
		return execUpdate(cat, tx, s, hint, tr, sc)
	case DeleteStmt:
		return execDelete(cat, tx, s, hint, tr, sc)
	case ExplainStmt:
		return execExplain(cat, tx, s, sc, sink)
	case CreateTableStmt, CreateIndexStmt:
		return 0, fmt.Errorf("%w: DDL inside a transaction", ErrUnsupported)
	default:
		return 0, ErrUnsupported
	}
}

func execInsert(cat Catalog, tx Txn, s InsertStmt, tr *execTrace, sc *Scratch) (int, error) {
	if _, _, ok := statTable(cat, s.Table); ok {
		return 0, errStatReadOnly(s.Table)
	}
	schema, err := cat.TableSchema(s.Table)
	if err != nil {
		return 0, err
	}
	mop := tr.op(opModify)
	mstart := mop.begin()
	n := 0
	for _, vals := range s.Rows {
		if len(vals) != schema.NumCols() {
			return n, fmt.Errorf("sql: INSERT has %d values, table %q has %d columns",
				len(vals), s.Table, schema.NumCols())
		}
		// The engine copies the row into its page; the scratch row is free
		// again when Insert returns.
		row := sc.rowBuf(len(vals))
		for i, v := range vals {
			// Int literals coerce to float columns.
			if v.Kind == rel.TInt64 && schema.Cols[i].Type == rel.TFloat64 {
				v = rel.Float(float64(v.I))
			}
			row[i] = v
		}
		if _, err := tx.Insert(s.Table, row); err != nil {
			return n, err
		}
		n++
	}
	mop.rows(int64(len(s.Rows)), int64(n))
	mop.end(mstart)
	return n, nil
}

// projectionFor resolves a streaming SELECT's select list, from the cached
// statement when it has it.
func projectionFor(hint *CachedStmt, schema *rel.Schema, s SelectStmt) (*projection, error) {
	if hint != nil {
		if pr := hint.proj.Load(); pr != nil {
			return pr, nil
		}
	}
	pr := &projection{}
	if s.Exprs == nil {
		for _, c := range schema.Cols {
			pr.cols = append(pr.cols, c.Name)
		}
	} else {
		for _, e := range s.Exprs {
			if e.Ref.Table != "" && e.Ref.Table != s.Table {
				return nil, fmt.Errorf("sql: unknown table %q in column reference", e.Ref.Table)
			}
			pos := schema.ColIndex(e.Ref.Col)
			if pos < 0 {
				return nil, fmt.Errorf("sql: unknown column %q", e.Ref.Col)
			}
			pr.pos = append(pr.pos, pos)
			pr.cols = append(pr.cols, e.Ref.Col)
		}
	}
	if hint != nil {
		hint.proj.Store(pr)
	}
	return pr, nil
}

// writePlan is an UPDATE's or DELETE's target scan: the table and the
// access path that finds the rows to change. The executor runs it and
// EXPLAIN renders it.
type writePlan struct {
	from planTable
	scan plan
}

// planWrite plans the target scan of an UPDATE or DELETE on table.
func planWrite(cat Catalog, hint *CachedStmt, table string, where []Cond, sc *Scratch) (wp writePlan, err error) {
	if _, _, ok := statTable(cat, table); ok {
		return wp, errStatReadOnly(table)
	}
	if wp.from, err = stmtTable(cat, hint, table); err != nil {
		return wp, err
	}
	if err = checkWhereQualifiers(table, where); err != nil {
		return wp, err
	}
	wp.scan, err = planFor(hint, wp.from.schema, wp.from.indexes, table, where, sc)
	return wp, err
}

func execUpdate(cat Catalog, tx Txn, s UpdateStmt, hint *CachedStmt, tr *execTrace, sc *Scratch) (int, error) {
	wp, err := planWrite(cat, hint, s.Table, s.Where, sc)
	if err != nil {
		return 0, err
	}
	return wp.update(tx, s.Set, tr, sc)
}

func execDelete(cat Catalog, tx Txn, s DeleteStmt, hint *CachedStmt, tr *execTrace, sc *Scratch) (int, error) {
	wp, err := planWrite(cat, hint, s.Table, s.Where, sc)
	if err != nil {
		return 0, err
	}
	return wp.apply(tx, tr, sc, func(rid rel.RowID) error { return tx.Delete(wp.from.name, rid) })
}

// update validates and coerces the SET clause, then applies it to every
// target row.
func (wp *writePlan) update(tx Txn, set map[string]rel.Value, tr *execTrace, sc *Scratch) (int, error) {
	schema := wp.from.schema
	if sc.coerced == nil {
		sc.coerced = make(map[string]rel.Value, len(set))
	}
	coerced := sc.coerced
	clear(coerced)
	for name, v := range set {
		pos := schema.ColIndex(name)
		if pos < 0 {
			return 0, fmt.Errorf("sql: unknown column %q", name)
		}
		if v.Kind == rel.TInt64 && schema.Cols[pos].Type == rel.TFloat64 {
			v = rel.Float(float64(v.I))
		}
		if v.Kind != schema.Cols[pos].Type {
			return 0, fmt.Errorf("sql: column %q: literal type mismatch", name)
		}
		coerced[name] = v
	}
	return wp.apply(tx, tr, sc, func(rid rel.RowID) error { return tx.Update(wp.from.name, rid, coerced) })
}

// maxKeptRIDs bounds the row-id list a Scratch keeps between statements (a
// whole-table UPDATE's is dropped).
const maxKeptRIDs = 4096

// apply runs the target scan, collecting every matching row ID first —
// changing rows while scanning the same index could revisit moved entries
// — then applies change to each.
func (wp *writePlan) apply(tx Txn, tr *execTrace, sc *Scratch, change func(rel.RowID) error) (int, error) {
	notePlan(tx, wp.from.name, wp.scan)
	sc.bindCallbacks()
	if cap(sc.rids) > maxKeptRIDs {
		sc.rids = nil
	}
	sc.rids = sc.rids[:0]
	if err := scanMatching(tx, wp.from.schema, wp.from.name, wp.scan, tr.op(opScan), sc, sc.collectFn); err != nil {
		return 0, err
	}
	mop := tr.op(opModify)
	mstart := mop.begin()
	for _, rid := range sc.rids {
		if err := change(rid); err != nil {
			return 0, err
		}
	}
	n := len(sc.rids)
	mop.rows(int64(n), int64(n))
	mop.end(mstart)
	return n, nil
}
