package sql

import (
	"fmt"
	"sort"
	"strings"

	"phoebedb/internal/rel"
)

// Shaped SELECT execution: joins, GROUP BY + aggregates, ORDER BY, and
// their combinations. The simple single-table projection stays on the
// streaming fast path in exec.go; everything here materializes matching
// rows first (cloning them — scan callbacks only borrow their row) and
// then applies the shared shaping pipeline:
//
//	gather (scan / join)  →  aggregate  →  sort  →  limit  →  project
//
// Two optimizations carry over from the flat path: LIMIT stops the
// gather early whenever output order is scan order, and an ORDER BY
// whose keys are already delivered by the chosen index scan skips the
// sort entirely (counted in Counters.SortAvoided).

// srcSchema describes the row shape a shaped SELECT operates on: one
// table, or two concatenated (outer ++ inner) for a join.
type srcSchema struct {
	tables  []string
	schemas []*rel.Schema
	offsets []int
	width   int
}

func singleSource(table string, schema *rel.Schema) *srcSchema {
	return &srcSchema{
		tables:  []string{table},
		schemas: []*rel.Schema{schema},
		offsets: []int{0},
		width:   schema.NumCols(),
	}
}

func joinSource(outer string, os *rel.Schema, inner string, is *rel.Schema) *srcSchema {
	return &srcSchema{
		tables:  []string{outer, inner},
		schemas: []*rel.Schema{os, is},
		offsets: []int{0, os.NumCols()},
		width:   os.NumCols() + is.NumCols(),
	}
}

// resolve maps a column reference to its position in the combined row.
// Unqualified names must be unambiguous across the source tables.
func (ss *srcSchema) resolve(ref ColRef) (int, error) {
	if ref.Table != "" {
		for i, t := range ss.tables {
			if t == ref.Table {
				if pos := ss.schemas[i].ColIndex(ref.Col); pos >= 0 {
					return ss.offsets[i] + pos, nil
				}
				return 0, fmt.Errorf("sql: unknown column %q.%q", ref.Table, ref.Col)
			}
		}
		return 0, fmt.Errorf("sql: unknown table %q in column reference", ref.Table)
	}
	found := -1
	for i := range ss.schemas {
		if pos := ss.schemas[i].ColIndex(ref.Col); pos >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", ref.Col)
			}
			found = ss.offsets[i] + pos
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", ref.Col)
	}
	return found, nil
}

// colMeta returns the column definition behind a combined-row position.
func (ss *srcSchema) colMeta(pos int) rel.Column {
	for i := len(ss.offsets) - 1; i >= 0; i-- {
		if pos >= ss.offsets[i] {
			return ss.schemas[i].Cols[pos-ss.offsets[i]]
		}
	}
	return rel.Column{}
}

// hasAggs reports whether any select-list item is an aggregate.
func hasAggs(exprs []SelectExpr) bool {
	for _, e := range exprs {
		if e.Agg != AggNone {
			return true
		}
	}
	return false
}

// checkWhereQualifiers rejects table qualifiers naming anything but the
// single table in scope (resolveWhere itself ignores qualifiers).
func checkWhereQualifiers(table string, where []Cond) error {
	for _, c := range where {
		if c.Table != "" && c.Table != table {
			return fmt.Errorf("sql: unknown table %q in column reference", c.Table)
		}
	}
	return nil
}

// compareValues orders two values of the same column. Mixed kinds cannot
// occur through the type checker but still order deterministically.
func compareValues(a, b rel.Value) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case rel.TInt64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	case rel.TFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
	case rel.TString:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// outCol is one resolved output column of a shaped SELECT.
type outCol struct {
	name string
	agg  AggFunc
	star bool // COUNT(*)
	pos  int  // combined-row position (aggregate argument, or plain output)
}

func colNames(outCols []outCol) []string {
	names := make([]string, len(outCols))
	for i, oc := range outCols {
		names[i] = oc.name
	}
	return names
}

// buildOutCols resolves the select list against the source.
func buildOutCols(ss *srcSchema, s SelectStmt) ([]outCol, error) {
	if s.Exprs == nil {
		if len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		var out []outCol
		for i := range ss.schemas {
			for j, c := range ss.schemas[i].Cols {
				out = append(out, outCol{name: c.Name, pos: ss.offsets[i] + j})
			}
		}
		return out, nil
	}
	out := make([]outCol, 0, len(s.Exprs))
	for _, e := range s.Exprs {
		oc := outCol{agg: e.Agg, star: e.Star}
		if e.Star {
			oc.name = "count(*)"
			out = append(out, oc)
			continue
		}
		pos, err := ss.resolve(e.Ref)
		if err != nil {
			return nil, err
		}
		oc.pos = pos
		label := e.Ref.Col
		if e.Ref.Table != "" {
			label = e.Ref.Table + "." + e.Ref.Col
		}
		if e.Agg != AggNone {
			if (e.Agg == AggSum || e.Agg == AggAvg) && ss.colMeta(pos).Type == rel.TString {
				return nil, fmt.Errorf("sql: %s(%s): argument must be numeric", e.Agg, label)
			}
			oc.name = fmt.Sprintf("%s(%s)", e.Agg, label)
		} else {
			oc.name = e.Ref.Col
		}
		out = append(out, oc)
	}
	return out, nil
}

// shapeRows applies aggregation, ordering, LIMIT, and projection to
// materialized combined rows. sorted reports that rows already arrive in
// ORDER BY order (index-order sort avoidance); rows is mutated in place
// by sorting, so callers must own the slice. tr, when non-nil, collects
// per-operator actuals for EXPLAIN ANALYZE.
func shapeRows(ss *srcSchema, s SelectStmt, rows []rel.Row, sorted bool, c *Counters, tr *execTrace, sink RowSink) (int, error) {
	outCols, err := buildOutCols(ss, s)
	if err != nil {
		return 0, err
	}
	if len(s.GroupBy) > 0 || hasAggs(s.Exprs) {
		return aggregateRows(ss, s, outCols, rows, c, tr, sink)
	}
	if len(s.OrderBy) > 0 && !sorted {
		sop := tr.sortOp()
		sstart := sop.begin()
		if err := sortRows(ss, s.OrderBy, rows); err != nil {
			return 0, err
		}
		sop.rows(int64(len(rows)), int64(len(rows)))
		sop.end(sstart)
		c.Sorts.Add(1)
	}
	if s.Limit > 0 {
		lop := tr.limitOp()
		lop.rows(int64(len(rows)), 0)
		if len(rows) > s.Limit {
			rows = rows[:s.Limit]
		}
		lop.rows(0, int64(len(rows)))
	}
	pop := tr.projectOp()
	pstart := pop.begin()
	sink.Header(colNames(outCols))
	out := make(rel.Row, len(outCols))
	n := 0
	for _, row := range rows {
		for j, oc := range outCols {
			out[j] = row[oc.pos]
		}
		n++
		if !sink.Row(out) {
			break
		}
	}
	pop.rows(int64(len(rows)), int64(n))
	pop.end(pstart)
	return n, nil
}

// sortRows sorts the combined rows by the ORDER BY keys, stably.
func sortRows(ss *srcSchema, keys []OrderKey, rows []rel.Row) error {
	pos := make([]int, len(keys))
	for i, k := range keys {
		p, err := ss.resolve(k.Ref)
		if err != nil {
			return err
		}
		pos[i] = p
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range keys {
			if cmp := compareValues(rows[i][pos[k]], rows[j][pos[k]]); cmp != 0 {
				return (cmp < 0) != keys[k].Desc
			}
		}
		return false
	})
	return nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	minmax rel.Value
	seen   bool
}

func (st *aggState) add(agg AggFunc, v rel.Value) {
	st.count++
	switch agg {
	case AggSum, AggAvg:
		if v.Kind == rel.TInt64 {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else {
			st.sumF += v.F
		}
	case AggMin:
		if !st.seen || compareValues(v, st.minmax) < 0 {
			st.minmax = v
		}
	case AggMax:
		if !st.seen || compareValues(v, st.minmax) > 0 {
			st.minmax = v
		}
	}
	st.seen = true
}

// zeroValue is this no-NULL dialect's result for value aggregates over
// an empty input: the zero of the argument's column type.
func zeroValue(ct rel.Type) rel.Value {
	switch ct {
	case rel.TFloat64:
		return rel.Float(0)
	case rel.TString:
		return rel.Str("")
	}
	return rel.Int(0)
}

// final renders the aggregate's value; ct is the argument column's type.
func (st *aggState) final(agg AggFunc, ct rel.Type) rel.Value {
	switch agg {
	case AggCount:
		return rel.Int(st.count)
	case AggSum:
		if !st.seen {
			return zeroValue(ct)
		}
		if ct == rel.TFloat64 {
			return rel.Float(st.sumF)
		}
		return rel.Int(st.sumI)
	case AggAvg:
		if st.count == 0 {
			return rel.Float(0)
		}
		return rel.Float(st.sumF / float64(st.count))
	case AggMin, AggMax:
		if !st.seen {
			return zeroValue(ct)
		}
		return st.minmax
	}
	return rel.Value{}
}

// aggregateRows hash-aggregates the combined rows by the GROUP BY keys
// (or into a single scalar group). Output order is the encoded group-key
// order — deterministic — unless ORDER BY (over grouping columns)
// overrides it.
func aggregateRows(ss *srcSchema, s SelectStmt, outCols []outCol, rows []rel.Row, c *Counters, tr *execTrace, sink RowSink) (int, error) {
	groupPos := make([]int, len(s.GroupBy))
	for i, ref := range s.GroupBy {
		p, err := ss.resolve(ref)
		if err != nil {
			return 0, err
		}
		groupPos[i] = p
	}
	inGroup := func(pos int) int {
		for j, gp := range groupPos {
			if gp == pos {
				return j
			}
		}
		return -1
	}
	// Every plain output column must be one of the grouping columns.
	for _, oc := range outCols {
		if oc.agg == AggNone && inGroup(oc.pos) < 0 {
			return 0, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", oc.name)
		}
	}
	type group struct {
		vals   []rel.Value // grouping column values, groupPos order
		states []aggState
	}
	aop := tr.aggOp()
	astart := aop.begin()
	groups := make(map[string]*group)
	keyBuf := make([]rel.Value, len(groupPos))
	var keyBytes []byte
	for _, row := range rows {
		for i, gp := range groupPos {
			keyBuf[i] = row[gp]
		}
		keyBytes = rel.EncodeKey(keyBytes[:0], keyBuf...)
		g := groups[string(keyBytes)]
		if g == nil {
			g = &group{
				vals:   append([]rel.Value(nil), keyBuf...),
				states: make([]aggState, len(outCols)),
			}
			groups[string(keyBytes)] = g
		}
		for i, oc := range outCols {
			if oc.agg == AggNone {
				continue
			}
			var v rel.Value
			if !oc.star {
				v = row[oc.pos]
			}
			g.states[i].add(oc.agg, v)
		}
	}
	if len(groupPos) == 0 && len(groups) == 0 {
		// A scalar aggregate over zero rows still yields one row.
		groups[""] = &group{states: make([]aggState, len(outCols))}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*group, len(keys))
	for i, k := range keys {
		out[i] = groups[k]
	}
	aop.rows(int64(len(rows)), int64(len(out)))
	aop.end(astart)
	if len(s.OrderBy) > 0 {
		sop := tr.sortOp()
		sstart := sop.begin()
		idx := make([]int, len(s.OrderBy))
		for i, key := range s.OrderBy {
			p, err := ss.resolve(key.Ref)
			if err != nil {
				return 0, err
			}
			gi := inGroup(p)
			if gi < 0 {
				return 0, fmt.Errorf("sql: ORDER BY column %q must appear in GROUP BY", key.Ref.Col)
			}
			idx[i] = gi
		}
		sort.SliceStable(out, func(a, b int) bool {
			for k, gi := range idx {
				if cmp := compareValues(out[a].vals[gi], out[b].vals[gi]); cmp != 0 {
					return (cmp < 0) != s.OrderBy[k].Desc
				}
			}
			return false
		})
		sop.rows(int64(len(out)), int64(len(out)))
		sop.end(sstart)
		c.Sorts.Add(1)
	}
	if s.Limit > 0 {
		lop := tr.limitOp()
		lop.rows(int64(len(out)), 0)
		if len(out) > s.Limit {
			out = out[:s.Limit]
		}
		lop.rows(0, int64(len(out)))
	}
	pop := tr.projectOp()
	pstart := pop.begin()
	sink.Header(colNames(outCols))
	row := make(rel.Row, len(outCols))
	n := 0
	for _, g := range out {
		for j, oc := range outCols {
			if oc.agg == AggNone {
				row[j] = g.vals[inGroup(oc.pos)]
				continue
			}
			ct := rel.TInt64
			if !oc.star {
				ct = ss.colMeta(oc.pos).Type
			}
			row[j] = g.states[j].final(oc.agg, ct)
		}
		n++
		if !sink.Row(row) {
			break
		}
	}
	pop.rows(int64(len(out)), int64(n))
	pop.end(pstart)
	return n, nil
}

// pushdownScalarAggs computes an all-aggregate scalar SELECT over a full
// table scan inside the engine: predicates filter column strips into a
// selection vector and each aggregate folds directly over its minipage, so
// no qualifying row is materialized (§5.2). ok is false when the shape
// doesn't qualify — a non-aggregate output column or a var-width filter
// column — and the caller falls back to the gather + shape pipeline.
func pushdownScalarAggs(tx Txn, ss *srcSchema, s SelectStmt, p plan, sc *Scratch, sink RowSink) (int, bool, error) {
	preds, rest := p.splitResidual(ss.schemas[0], sc)
	if len(rest) > 0 {
		return 0, false, nil
	}
	outCols, err := buildOutCols(ss, s)
	if err != nil {
		return 0, false, err
	}
	// Lower each output to a fold spec. COUNT (star or column — the
	// dialect has no NULLs, so they agree) reads the shared row count;
	// AVG folds a SUM and divides by it.
	specIdx := make([]int, len(outCols))
	var specs []rel.AggSpec
	for i, oc := range outCols {
		var op rel.AggOp
		switch oc.agg {
		case AggCount:
			specIdx[i] = -1
			continue
		case AggSum, AggAvg:
			op = rel.AggOpSum
		case AggMin:
			op = rel.AggOpMin
		case AggMax:
			op = rel.AggOpMax
		default: // AggNone: plain column in an aggregate select list
			return 0, false, nil
		}
		specIdx[i] = len(specs)
		specs = append(specs, rel.AggSpec{Op: op, Col: oc.pos})
	}
	notePlan(tx, s.Table, p)
	vals, n, err := tx.AggTableFiltered(s.Table, preds, specs)
	if err != nil {
		return 0, false, err
	}
	row := sc.rowBuf(len(outCols))
	for i, oc := range outCols {
		ct := rel.TInt64
		if !oc.star {
			ct = ss.colMeta(oc.pos).Type
		}
		switch {
		case oc.agg == AggCount:
			row[i] = rel.Int(n)
		case oc.agg == AggAvg:
			if n == 0 {
				row[i] = rel.Float(0)
				break
			}
			sum := vals[specIdx[i]]
			f := sum.F
			if sum.Kind == rel.TInt64 {
				f = float64(sum.I)
			}
			row[i] = rel.Float(f / float64(n))
		case n == 0:
			row[i] = zeroValue(ct)
		default:
			row[i] = vals[specIdx[i]]
		}
	}
	sink.Header(colNames(outCols))
	sink.Row(row)
	return 1, true, nil
}

// orderSatisfied reports whether the planned index scan already emits
// rows in ORDER BY order: every key ascending, and the key columns
// matching the index columns after the equality prefix, in sequence.
// Columns pinned by the equality prefix are constant within the scan and
// satisfy a key anywhere.
func orderSatisfied(ss *srcSchema, indexes []IndexMeta, p plan, keys []OrderKey) (bool, error) {
	if p.index == "" {
		return false, nil
	}
	var ix *IndexMeta
	for i := range indexes {
		if indexes[i].Name == p.index {
			ix = &indexes[i]
			break
		}
	}
	if ix == nil {
		return false, nil
	}
	prefix := len(p.prefixVals)
	next := prefix
	for _, key := range keys {
		if key.Desc {
			return false, nil
		}
		pos, err := ss.resolve(key.Ref)
		if err != nil {
			return false, err
		}
		pinned := false
		for _, pc := range ix.Cols[:prefix] {
			if pc == pos {
				pinned = true
				break
			}
		}
		if pinned {
			continue
		}
		if next < len(ix.Cols) && ix.Cols[next] == pos {
			next++
			continue
		}
		return false, nil
	}
	return true, nil
}

// execSelectShaped runs a single-table SELECT with ORDER BY, GROUP BY,
// or aggregates: gather matching rows (cloned), then shape.
func execSelectShaped(cat Catalog, tx Txn, s SelectStmt, hint *CachedStmt, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	schema, indexes, err := stmtTable(cat, hint, s.Table)
	if err != nil {
		return 0, err
	}
	if err := checkWhereQualifiers(s.Table, s.Where); err != nil {
		return 0, err
	}
	ss := singleSource(s.Table, schema)
	p, err := planFor(hint, schema, indexes, s.Table, s.Where, sc)
	if err != nil {
		return 0, err
	}
	c := countersOf(cat)
	aggregate := len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	if aggregate && tr == nil && len(s.GroupBy) == 0 && len(s.OrderBy) == 0 &&
		p.index == "" && !p.empty {
		if n, ok, err := pushdownScalarAggs(tx, ss, s, p, sc, sink); ok || err != nil {
			return n, err
		}
	}
	sorted := false
	if !aggregate && len(s.OrderBy) > 0 {
		sorted, err = orderSatisfied(ss, indexes, p, s.OrderBy)
		if err != nil {
			return 0, err
		}
		if sorted {
			c.SortAvoided.Add(1)
		}
	}
	// LIMIT can stop the gather early only when output order is scan order.
	early := 0
	if !aggregate && s.Limit > 0 && (len(s.OrderBy) == 0 || sorted) {
		early = s.Limit
	}
	notePlan(tx, s.Table, p)
	var rows []rel.Row
	err = scanMatching(tx, schema, s.Table, p, tr.scanOp(), sc, func(_ rel.RowID, row rel.Row) bool {
		r := make(rel.Row, len(row))
		copy(r, row) // the scan only lends us the row
		rows = append(rows, r)
		return early == 0 || len(rows) < early
	})
	if err != nil {
		return 0, err
	}
	return shapeRows(ss, s, rows, sorted, c, tr, sink)
}

// selectHint caches a join's strategy for a prepared statement: which
// side drives and which index the other side is probed through. It is
// literal-independent, and DDL invalidation drops the whole cache entry,
// so a stored hint never outlives the schema it was computed against.
type selectHint struct {
	swapped    bool   // drive over the JOIN table, probe the FROM table
	probeIndex string // "" = hash join (no usable index on either side)
}

// indexOnCol returns an index whose first column is pos (so an equality
// probe on that column is an index prefix scan), preferring unique ones.
func indexOnCol(indexes []IndexMeta, pos int) string {
	name := ""
	for _, ix := range indexes {
		if len(ix.Cols) > 0 && ix.Cols[0] == pos {
			if ix.Unique {
				return ix.Name
			}
			if name == "" {
				name = ix.Name
			}
		}
	}
	return name
}

// joinInfo is a two-table equi-join resolved against the catalog: the
// combined source schema, the join columns (schema-local on each side),
// the WHERE conditions partitioned by side, and each side's indexes.
// Shared between execution and EXPLAIN's plan rendering.
type joinInfo struct {
	ss                         *srcSchema
	outerSchema, innerSchema   *rel.Schema
	outerPos, innerPos         int
	outerConds, innerConds     []Cond
	outerIndexes, innerIndexes []IndexMeta
}

// resolveJoin validates and resolves s's two-table join: schemas, the
// equi-join columns, WHERE partitioned by side, and index metadata.
func resolveJoin(cat Catalog, s SelectStmt) (*joinInfo, error) {
	if _, _, ok := statTable(cat, s.Table); ok {
		return nil, fmt.Errorf("sql: stat table %q cannot be joined", s.Table)
	}
	if _, _, ok := statTable(cat, s.Join.Table); ok {
		return nil, fmt.Errorf("sql: stat table %q cannot be joined", s.Join.Table)
	}
	if s.Join.Table == s.Table {
		return nil, fmt.Errorf("%w: self-join of %q", ErrUnsupported, s.Table)
	}
	outerSchema, err := cat.TableSchema(s.Table)
	if err != nil {
		return nil, err
	}
	innerSchema, err := cat.TableSchema(s.Join.Table)
	if err != nil {
		return nil, err
	}
	ss := joinSource(s.Table, outerSchema, s.Join.Table, innerSchema)

	// Resolve the equi-join condition: one side per table, either order.
	lpos, err := ss.resolve(s.Join.Left)
	if err != nil {
		return nil, err
	}
	rpos, err := ss.resolve(s.Join.Right)
	if err != nil {
		return nil, err
	}
	outerPos, innerPos := lpos, rpos
	if lpos >= ss.offsets[1] {
		outerPos, innerPos = rpos, lpos
	}
	if outerPos >= ss.offsets[1] || innerPos < ss.offsets[1] {
		return nil, fmt.Errorf("sql: join condition must reference both tables")
	}
	innerPos -= ss.offsets[1]
	if outerSchema.Cols[outerPos].Type != innerSchema.Cols[innerPos].Type {
		return nil, fmt.Errorf("sql: join columns have different types")
	}

	// Partition WHERE by side, stripping qualifiers: each side's planner
	// resolves bare column names against its own schema.
	var outerConds, innerConds []Cond
	for _, cd := range s.Where {
		pos, err := ss.resolve(ColRef{Table: cd.Table, Col: cd.Col})
		if err != nil {
			return nil, err
		}
		if pos < ss.offsets[1] {
			outerConds = append(outerConds, Cond{Col: cd.Col, Op: cd.Op, Val: cd.Val})
		} else {
			innerConds = append(innerConds, Cond{Col: cd.Col, Op: cd.Op, Val: cd.Val})
		}
	}
	outerIndexes, err := cat.IndexInfo(s.Table)
	if err != nil {
		return nil, err
	}
	innerIndexes, err := cat.IndexInfo(s.Join.Table)
	if err != nil {
		return nil, err
	}
	return &joinInfo{
		ss:          ss,
		outerSchema: outerSchema, innerSchema: innerSchema,
		outerPos: outerPos, innerPos: innerPos,
		outerConds: outerConds, innerConds: innerConds,
		outerIndexes: outerIndexes, innerIndexes: innerIndexes,
	}, nil
}

// chooseJoinStrategy picks (and caches on hint) the join strategy: index
// nested loop through whichever side has an index on its join column
// (preferring the JOIN-clause table), else hash join.
func chooseJoinStrategy(hint *CachedStmt, ji *joinInfo) *selectHint {
	var sh *selectHint
	if hint != nil {
		sh = hint.sel.Load()
	}
	if sh == nil {
		sh = &selectHint{}
		if ixn := indexOnCol(ji.innerIndexes, ji.innerPos); ixn != "" {
			sh.probeIndex = ixn
		} else if ixn := indexOnCol(ji.outerIndexes, ji.outerPos); ixn != "" {
			sh.probeIndex, sh.swapped = ixn, true
		}
		if hint != nil {
			hint.sel.Store(sh)
		}
	}
	return sh
}

// execSelectJoin runs a two-table inner equi-join: index nested loop
// probing whichever side has an index on its join column (preferring the
// JOIN-clause table), falling back to a hash join built on the inner
// side. The combined rows then flow through the shared shaping pipeline.
func execSelectJoin(cat Catalog, tx Txn, s SelectStmt, hint *CachedStmt, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	ji, err := resolveJoin(cat, s)
	if err != nil {
		return 0, err
	}
	sh := chooseJoinStrategy(hint, ji)

	c := countersOf(cat)
	aggregate := len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	early := 0
	if !aggregate && len(s.OrderBy) == 0 && s.Limit > 0 {
		early = s.Limit
	}
	var rows []rel.Row
	emit := func(orow, irow rel.Row) bool {
		out := make(rel.Row, ji.ss.width)
		copy(out, orow)
		copy(out[ji.ss.offsets[1]:], irow)
		rows = append(rows, out)
		return early == 0 || len(rows) < early
	}

	if sh.probeIndex != "" {
		// Index nested loop: scan the driving side through its own WHERE
		// plan, probe the other side's index with each join value.
		driveName, driveSchema, driveConds := s.Table, ji.outerSchema, ji.outerConds
		probeName, probeSchema, probeConds := s.Join.Table, ji.innerSchema, ji.innerConds
		driveJoin, driveIndexes := ji.outerPos, ji.outerIndexes
		if sh.swapped {
			driveName, driveSchema, driveConds = s.Join.Table, ji.innerSchema, ji.innerConds
			probeName, probeSchema, probeConds = s.Table, ji.outerSchema, ji.outerConds
			driveJoin, driveIndexes = ji.innerPos, ji.innerIndexes
		}
		dp, err := planWhere(driveSchema, driveIndexes, driveConds)
		if err != nil {
			return 0, err
		}
		noteLabel(tx, joinLabel(sh, scanLabel(driveName, dp), probeName))
		// The probe side bypasses planWhere, so apply the same dedupe
		// (last condition wins), range intersection, and int→float coercion
		// here; matches() compares raw values and must see normalized
		// conditions.
		prw, err := resolveWhere(probeSchema, probeConds)
		if err != nil {
			return 0, err
		}
		if prw.empty {
			return shapeRows(ji.ss, s, nil, false, c, tr, sink)
		}
		probeConds = prw.flatten(probeSchema)
		pop := tr.probeOp()
		var perr error
		err = scanMatching(tx, driveSchema, driveName, dp, tr.scanOp(), sc, func(_ rel.RowID, drow rel.Row) bool {
			more := true
			pstart := pop.begin()
			perr = tx.ScanIndex(probeName, sh.probeIndex, []rel.Value{drow[driveJoin]}, func(_ rel.RowID, prow rel.Row) bool {
				if pop != nil {
					pop.rowsIn++
				}
				if !matches(probeSchema, prow, probeConds) {
					return true
				}
				if pop != nil {
					pop.rowsOut++
				}
				if sh.swapped {
					more = emit(prow, drow)
				} else {
					more = emit(drow, prow)
				}
				return more
			})
			pop.end(pstart)
			return perr == nil && more
		})
		if tr != nil {
			// The probe runs inside the drive scan's callback; keep each
			// wall-second charged to exactly one operator.
			tr.scan.nanos -= tr.probe.nanos
			if tr.scan.nanos < 0 {
				tr.scan.nanos = 0
			}
		}
		if err == nil {
			err = perr
		}
		if err != nil {
			return 0, err
		}
	} else {
		// Hash join: build on the inner side, probe while scanning outer.
		ip, err := planWhere(ji.innerSchema, ji.innerIndexes, ji.innerConds)
		if err != nil {
			return 0, err
		}
		build := make(map[string][]rel.Row)
		err = scanMatching(tx, ji.innerSchema, s.Join.Table, ip, tr.buildOp(), sc, func(_ rel.RowID, row rel.Row) bool {
			r := make(rel.Row, len(row))
			copy(r, row)
			build[string(rel.EncodeKey(nil, row[ji.innerPos]))] = append(build[string(rel.EncodeKey(nil, row[ji.innerPos]))], r)
			return true
		})
		if err != nil {
			return 0, err
		}
		outp, err := planWhere(ji.outerSchema, ji.outerIndexes, ji.outerConds)
		if err != nil {
			return 0, err
		}
		noteLabel(tx, joinLabel(sh, scanLabel(s.Table, outp), s.Join.Table))
		pop := tr.probeOp()
		pstart := pop.begin()
		var probeKey []byte
		err = scanMatching(tx, ji.outerSchema, s.Table, outp, tr.scanOp(), sc, func(_ rel.RowID, orow rel.Row) bool {
			probeKey = rel.EncodeKey(probeKey[:0], orow[ji.outerPos])
			matched := build[string(probeKey)]
			if pop != nil {
				pop.rowsIn++
				pop.rowsOut += int64(len(matched))
			}
			for _, irow := range matched {
				if !emit(orow, irow) {
					return false
				}
			}
			return true
		})
		pop.end(pstart)
		if tr != nil {
			tr.probe.nanos -= tr.scan.nanos
			if tr.probe.nanos < 0 {
				tr.probe.nanos = 0
			}
		}
		if err != nil {
			return 0, err
		}
	}
	c.JoinRows.Add(int64(len(rows)))
	return shapeRows(ji.ss, s, rows, false, c, tr, sink)
}
